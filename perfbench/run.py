"""lsorder benchmark: three seeded workloads, timed end to end and per layer.

Run from the root of a checkout (it imports lsorder from ./src):

    python3 perfbench/run.py --workload euclid-l2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out .bench_build/parent

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics.  --workload all runs every workload, each in its own process, and
prints a table.  --out DIR also stores each result there, for compare.py.

Each workload runs in a fresh child process with BLAS/OpenMP threads pinned
to 1.  The child imports lsorder before any clock starts, then runs rounds
(see workloads.py) until --seconds have passed, and at least MIN_ROUNDS.
setup_s and the p99 latencies are medians over rounds; every other metric is
the upper quartile over rounds of that round's value (phase time, or p50 of
the round's calls; batch_pairs_per_s inverts the round's seconds per pair);
see _upper_quartile for why.  Every timed output is checked; known defects
are reported on standard error by name and do not count as failures.

With --trace 1 each round runs twice on the same instance: untraced, then
with tracer.py's wrappers installed.  Per-layer metrics are upper quartiles
over the traced passes (maxima for max_ counters); trace.overhead_s is traced
minus untraced build time.  Spans are written to .bench_build/perfbench/ when
the run ends.  A --trace 0 run installs no wrappers.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

ROOT = os.getcwd()
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="directory that keeps each result as JSON")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# parent: one fresh process per workload


def run_child(workload, args, seconds):
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def save(args, workload, result):
    os.makedirs(args.out, exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    doc = dict(result, workload=workload, seed=args.seed, trace=args.trace)
    with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lsorder", "metrics.py")):
        sys.exit("run from the root of an lsorder checkout: src/lsorder is missing")
    spec = load_spec()
    if args.child:
        return child_main(args, spec)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    todo = names if args.workload == "all" else [args.workload]
    for workload in todo:
        result = run_child(workload, args, seconds)
        if args.out:
            save(args, workload, result)
        if len(todo) > 1:
            print(f"{workload}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
        else:
            print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# child: the measurement itself


def child_main(args, spec):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import lsorder.metrics
    import workloads
    from tracer import Tracer

    if not os.path.abspath(lsorder.metrics.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit("lsorder was not imported from ./src")
    round_fn = workloads.WORKLOADS[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)
    plain = workloads.Recorder()
    tracer = Tracer() if args.trace else None
    traced = workloads.Recorder(tracer) if tracer else None
    layer_rounds = []
    min_rounds = MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        start = time.perf_counter()
        r = 0
        while True:
            round_start = time.perf_counter()
            plain.start_round()
            round_fn(plain, tmp, args.seed, r)
            if tracer:
                tracer.reset_round()
                traced.start_round()
                tracer.install()
                try:
                    round_fn(traced, tmp, args.seed, r)
                finally:
                    tracer.uninstall()
                layer_rounds.append(dict(tracer.group_metrics(), **traced.round_counters[-1]))
            r += 1
            now = time.perf_counter()
            # stop when another round like the last would overrun --seconds
            if r >= min_rounds and 2 * now - round_start > start + args.seconds:
                break
    recs = [plain, traced] if tracer else [plain]
    attempted = sum(rec.attempted for rec in recs)
    failed = sum(rec.failed for rec in recs)
    report_checks(args.workload, r, recs)
    if tracer:
        metrics = layer_metrics(spec, plain, traced, layer_rounds)
        path = os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        print(f"{args.workload}: {len(tracer.spans)} spans written to {path}", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(spec, plain)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report_checks(workload, rounds, recs):
    """Per-round values of the untraced pass, failed checks and known defects,
    on standard error."""
    failures, known = Counter(), Counter()
    for rec in recs:
        failures.update(rec.failures)
        known.update(rec.known_defects)
    print(f"{workload}: {rounds} rounds, {sum(r.attempted for r in recs)} checks", file=sys.stderr)
    for rnd, lat in zip(recs[0].rounds, recs[0].latency):
        phases = " ".join(f"{k}={v:.6f}" for k, v in rnd.items())
        streams = " ".join(f"{k}_p50={_percentile(v, 50) * 1e6:.3f} "
                           f"{k}_p99={_percentile(v, 99) * 1e6:.3f} {k}_n={len(v)}"
                           for k, v in lat.items())
        print(f"  round {phases} {streams}", file=sys.stderr)
    for name, count in sorted(failures.items()):
        print(f"  FAILED {name}: {count}", file=sys.stderr)
    for name, count in sorted(known.items()):
        print(f"  known defect {name}: {count} mismatches", file=sys.stderr)


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def _upper_quartile(values):
    """Aggregate of one metric over the rounds of a run.

    On a shared machine the speed of a core is mostly at one level and now
    and then, for some seconds, much faster; how many rounds of a run fall in
    such bursts varies from run to run.  The upper quartile of the rounds
    tracks the common level, which repeats from run to run, where the mean or
    the median moves with the share of fast rounds.  Tail latencies are also
    hit the other way, by stalls of a millisecond or more in a few rounds,
    so p99 metrics take the median of the rounds instead."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end_metrics(spec, rec):
    """setup_s and the p99 latencies are medians over rounds; every other
    metric is the upper quartile over rounds of that round's value."""

    def phase(name):
        return _upper_quartile([rnd[name] for rnd in rec.rounds])

    def latency_us(stream, q):
        per_round = [_percentile(rnd[stream], q) for rnd in rec.latency]
        return (statistics.median(per_round) if q == 99 else _upper_quartile(per_round)) * 1e6

    values = {
        "setup_s": statistics.median(rnd["setup"] for rnd in rec.rounds),
        "build_s": phase("build"),
        "verify_s": phase("verify"),
        "path_query_p50_us": latency_us("path", 50),
        "path_query_p99_us": latency_us("path", 99),
        "ft_query_p50_us": latency_us("ft", 50),
        "nns_query_p50_us": latency_us("nns_query", 50),
        "nns_query_p99_us": latency_us("nns_query", 99),
        "nns_update_p50_us": latency_us("nns_update", 50),
        "batch_pairs_per_s": 1 / _upper_quartile(
            [rnd["batch"] / rnd["batch_pairs"] for rnd in rec.rounds]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def layer_metrics(spec, plain, traced, layer_rounds):
    overhead = _upper_quartile(
        [t["build"] - p["build"] for t, p in zip(traced.rounds, plain.rounds)]
    )
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            value = overhead
        else:
            per_round = [rnd.get(name, 0) for rnd in layer_rounds]
            value = max(per_round) if ".max_" in name else _upper_quartile(per_round)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
