"""Command line harness: dataset generation, structure builds, verification
with JSON reports, and NNS / path query loops.  Each subcommand accepts only
the flags it reads.

Exit status contract: verification passes iff exit code 0.
"""

import argparse
import json
import math
import sys
import time
from itertools import islice

import numpy as np

from . import fileio, seeds
from .doubling import build_ultrametric_cover, cover_preorder_to_triangle_lso
from .euclidean import build_classic_grid_lso, build_triangle_lso_verified
from .hopsets import FtTwoHopPathSpanner, TwoHopPathSpanner
from .metrics import LpMetric, PointSet, WeightedGraph, shortest_path_metric
from .nns import RootedNns, TriangleNns, assign_rooted_labels, assign_triangle_labels
from .orderings import build_rooted_lso_tree, build_rooted_lso_treewidth, verify_family
from .spanners import (
    ft_spanner_from_family,
    pr_spanner_from_classic,
    pr_spanner_from_rooted,
    pr_spanner_from_triangle,
    sparse_cover_spanner,
    spd_spanner,
    tree_heavy_path_spd,
    tz_spanner,
)

GEN_KINDS = (
    "uniform-cube",
    "gaussian-clusters",
    "grid",
    "random-metric",
    "random-tree",
    "random-graph",
)

STRUCTURES = (
    "two-hop",
    "ft-two-hop",
    "triangle-lso",
    "grid-lso",
    "ultrametric-cover",
    "cover-triangle-lso",
    "rooted-tree",
    "rooted-treewidth",
    "tz",
    "sparse-cover",
    "spd-tree",
)


def _rng(args, *tags):
    return seeds.rng_for(args.seed, *tags)


def cmd_gen(args):
    rng = _rng(args, "gen", args.kind, args.n, args.d)
    n, d = args.n, args.d
    if args.kind == "uniform-cube":
        fileio.write_points(args.out, PointSet(rng.uniform(size=(n, d))))
    elif args.kind == "gaussian-clusters":
        k = max(1, n // 50)
        centers = rng.uniform(size=(k, d))
        idx = rng.integers(0, k, size=n)
        pts = centers[idx] + rng.normal(scale=0.05, size=(n, d))
        fileio.write_points(args.out, PointSet(pts))
    elif args.kind == "grid":
        side = int(math.ceil(n ** (1.0 / d)))
        coords = np.stack(
            np.meshgrid(*([np.arange(side)] * d), indexing="ij"), axis=-1
        ).reshape(-1, d)[:n]
        fileio.write_points(args.out, PointSet(coords.astype(float)))
    elif args.kind == "random-tree":
        edges = [
            (int(rng.integers(0, v)), v, float(rng.integers(1, 9)))
            for v in range(1, n)
        ]
        fileio.write_graph(args.out, WeightedGraph(n, edges))
    elif args.kind == "random-graph":
        edges = [
            (int(rng.integers(0, v)), v, float(rng.integers(2, 512)) / 256.0)
            for v in range(1, n)
        ]
        extra = {(u, v) for u, v, _ in edges}
        for _ in range(2 * n):
            u, v = sorted(rng.integers(0, n, size=2).tolist())
            if u != v and (u, v) not in extra:
                extra.add((u, v))
                edges.append((u, v, float(rng.integers(2, 512)) / 256.0))
        fileio.write_graph(args.out, WeightedGraph(n, edges))
    elif args.kind == "random-metric":
        raw = rng.uniform(1.0, 10.0, size=(n, n))
        raw = (raw + raw.T) / 2
        np.fill_diagonal(raw, 0.0)
        g = WeightedGraph(
            n, [(i, j, float(raw[i, j])) for i in range(n) for j in range(i + 1, n)]
        )
        mat = shortest_path_metric(g).matrix()
        complete = WeightedGraph(
            n, [(i, j, float(mat[i, j])) for i in range(n) for j in range(i + 1, n)]
        )
        fileio.write_graph(args.out, complete)
    print(f"wrote {args.kind} dataset to {args.out}")
    return 0


def load_metric(args):
    """Dataset file -> metric (points file => lp metric, graph file => SPM).

    A file is a graph when its first data line holds two integers (n m) and
    its second data line, if there is one, holds three tokens (u v w);
    anything else is a point file.
    """
    with open(args.input, encoding="utf-8") as fh:
        head = [line.split() for line in islice(fileio.data_lines(fh.read()), 2)]
    is_graph = (
        len(head) > 0
        and len(head[0]) == 2
        and all(t.lstrip("-").isdigit() for t in head[0])
        and (len(head) == 1 or len(head[1]) == 3)
    )
    if is_graph:
        g = fileio.read_graph(args.input)
        return shortest_path_metric(g), g, None
    ps = fileio.read_points(args.input)
    return LpMetric(ps, args.p), None, ps


def _require(value, flag, structure):
    """Exit 2, as argparse does, when a flag the structure reads is missing."""
    if value is None:
        print(f"lsorder build: error: --structure {structure} needs {flag}", file=sys.stderr)
        raise SystemExit(2)


def cmd_build(args):
    t0 = time.time()
    structure = args.structure
    if structure not in ("two-hop", "ft-two-hop"):
        _require(args.input, "--input", structure)
    if structure == "rooted-treewidth":
        _require(args.td, "--td", structure)
    if structure == "two-hop":
        s = TwoHopPathSpanner(args.n)
        doc = {"structure": "two-hop", "n": s.n, "edges": s.num_edges()}
        if s.n <= 4096:
            doc["adjacency"] = {str(i): s.edges_of(i) for i in range(1, s.n + 1)}
        _dump(args.out, doc)
    elif structure == "ft-two-hop":
        s = FtTwoHopPathSpanner(args.n, args.f)
        doc = {"structure": "ft-two-hop", "n": s.n, "f": s.f, "edges": s.num_edges()}
        _dump(args.out, doc)
    elif structure == "triangle-lso":
        metric, _, ps = load_metric(args)
        fam = build_triangle_lso_verified(
            ps, p=args.p, t=args.t, delta=args.delta, seed=args.seed
        )
        fileio.write_family(args.out, fam)
    elif structure == "grid-lso":
        _, _, ps = load_metric(args)
        grid = build_classic_grid_lso(ps, eps=args.eps, seed=args.seed)
        fileio.write_family(args.out, grid.family)
    elif structure == "ultrametric-cover":
        metric, _, _ = load_metric(args)
        cover = build_ultrametric_cover(metric, t=args.t, seed=args.seed)
        fileio.write_cover(args.out, cover)
    elif structure == "cover-triangle-lso":
        metric, _, _ = load_metric(args)
        cover = build_ultrametric_cover(metric, t=args.t, seed=args.seed)
        fileio.write_family(args.out, cover_preorder_to_triangle_lso(cover))
    elif structure == "rooted-tree":
        _, g, _ = load_metric(args)
        if g is None:
            raise SystemExit("rooted-tree needs a graph input")
        fam = build_rooted_lso_tree(g)
        fileio.write_family(args.out, fam)
    elif structure == "rooted-treewidth":
        _, g, _ = load_metric(args)
        td = fileio.read_tree_decomposition(args.td)
        fam = build_rooted_lso_treewidth(g, td)
        fileio.write_family(args.out, fam)
    elif structure == "tz":
        metric, _, _ = load_metric(args)
        sp = tz_spanner(metric, k=args.k, seed=args.seed)
        fileio.write_spanner(args.out, sp)
    elif structure == "sparse-cover":
        metric, _, _ = load_metric(args)
        tzsp = tz_spanner(metric, k=args.k, seed=args.seed)
        sp = sparse_cover_spanner(
            metric, k=args.k, eps=args.eps, estimator=lambda u, v: tzsp.query(u, v)[1]
        )
        fileio.write_spanner(args.out, sp)
    elif structure == "spd-tree":
        _, g, _ = load_metric(args)
        spd = tree_heavy_path_spd(g)
        sp = spd_spanner(spd, eps=args.eps)
        fileio.write_spanner(args.out, sp)
    print(f"built {structure} in {time.time() - t0:.2f}s -> {args.out}")
    return 0


def cmd_verify(args):
    t0 = time.time()
    metric, _, _ = load_metric(args)
    fam = fileio.read_family(args.family)
    try:
        rep = verify_family(fam, metric)
        pairs, stretch = rep.pairs_checked, rep.max_observed_stretch
        violations = [[int(x), int(y), float(r)] for x, y, r in rep.violations[:100]]
    except ValueError as exc:
        pairs, stretch = 0, float("nan")
        violations = [["structural", str(exc), 0.0]]
    report_doc = fileio.make_report(
        structure=f"{fam.kind}-family",
        params={"rho": fam.rho, "tau": fam.tau},
        seed=args.seed,
        num_orderings=len(fam.orderings),
        verified_pairs=pairs,
        violations=violations,
        max_observed_stretch=stretch,
        timings={"verify_s": time.time() - t0},
    )
    if args.out:
        fileio.write_report(args.out, report_doc)
    print(json.dumps({k: report_doc[k] for k in ("structure", "pass", "max_observed_stretch")}))
    return 0 if report_doc["pass"] else 1


def cmd_nns(args):
    metric, _, _ = load_metric(args)
    fam = fileio.read_family(args.family)
    try:
        if fam.kind == "rooted":
            labels = assign_rooted_labels(fam, metric)
            nns = RootedNns(fam, labels)
        elif fam.kind == "triangle":
            labels, hop = assign_triangle_labels(fam, metric)
            nns = TriangleNns(fam, labels, hop)
        else:
            raise SystemExit("nns needs a rooted or triangle family")
    except ValueError as exc:
        raise SystemExit(f"{args.family}: {exc}") from None
    for line in sys.stdin:
        toks = line.split()
        if not toks:
            continue
        op = toks[0]
        if op == "i":
            nns.insert(int(toks[1]))
            print("ok")
        elif op == "d":
            nns.delete(int(toks[1]))
            print("ok")
        elif op == "q":
            pid, est = nns.query(labels[int(toks[1])])
            print(f"{pid} {float(est)!r}")
        else:
            print(f"unknown op {op!r}", file=sys.stderr)
    return 0


def cmd_path(args):
    metric, _, _ = load_metric(args)
    fam = fileio.read_family(args.family)
    try:
        if fam.kind == "classic":
            sp = pr_spanner_from_classic(fam, metric)
        elif fam.kind == "triangle":
            sp = pr_spanner_from_triangle(fam, metric)
        else:
            sp = pr_spanner_from_rooted(fam, metric)
        ft = ft_spanner_from_family(fam, metric, args.f) if args.f else None
    except ValueError as exc:
        raise SystemExit(f"{args.family}: {exc}") from None
    for line in sys.stdin:
        toks = line.split()
        if not toks:
            continue
        if toks[0] != "p":
            print(f"unknown op {toks[0]!r}", file=sys.stderr)
            continue
        u, v = int(toks[1]), int(toks[2])
        faults = [int(t) for t in toks[3:]]
        if faults:
            if ft is None:
                print("fault query needs --f budget", file=sys.stderr)
                continue
            path, w = ft.query(u, v, faults)
        else:
            path, w = sp.query(u, v)
        print(" ".join(str(x) for x in path) + f" | {float(w)!r}")
    return 0


def cmd_report(args):
    with open(args.input, encoding="utf-8") as fh:
        doc = json.load(fh)
    status = "PASS" if doc.get("pass") else "FAIL"
    print(
        f"[{status}] {doc.get('structure')} pairs={doc.get('verified_pairs')} "
        f"max_stretch={doc.get('max_observed_stretch')}"
    )
    return 0 if doc.get("pass") else 1


def _dump(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def make_parser():
    ap = argparse.ArgumentParser(prog="lsorder")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a dataset")
    g.add_argument("kind", choices=GEN_KINDS)
    g.add_argument("--n", type=int, default=16)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output path")
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="build a structure")
    b.add_argument("--structure", required=True, choices=STRUCTURES)
    b.add_argument("--input", help="dataset file (points or graph)")
    b.add_argument("--out", required=True, help="output path")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--n", type=int, default=16)
    b.add_argument("--f", type=int, default=0)
    b.add_argument("--p", type=float, default=2.0)
    b.add_argument("--t", type=float, default=4.0)
    b.add_argument("--delta", type=float, default=0.5)
    b.add_argument("--eps", type=float, default=0.25)
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--td", help="tree decomposition file")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="verify an ordering family file")
    v.add_argument("--input", required=True, help="dataset file (points or graph)")
    v.add_argument("--family", required=True)
    v.add_argument("--out", help="report path")
    v.add_argument("--p", type=float, default=2.0)
    v.add_argument("--seed", type=int, default=0, help="echoed into the report")
    v.set_defaults(func=cmd_verify)

    q = sub.add_parser("nns", help="drive NNS queries from stdin")
    q.add_argument("--input", required=True, help="dataset file (points or graph)")
    q.add_argument("--family", required=True)
    q.add_argument("--p", type=float, default=2.0)
    q.set_defaults(func=cmd_nns)

    pth = sub.add_parser("path", help="drive path queries from stdin")
    pth.add_argument("--input", required=True, help="dataset file (points or graph)")
    pth.add_argument("--family", required=True)
    pth.add_argument("--f", type=int, default=0)
    pth.add_argument("--p", type=float, default=2.0)
    pth.set_defaults(func=cmd_path)

    r = sub.add_parser("report", help="summarize a report file")
    r.add_argument("--input", required=True, help="report file")
    r.set_defaults(func=cmd_report)
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
