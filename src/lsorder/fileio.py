"""Flat-file formats: point sets, graphs, tree decompositions, ordering
families, HST covers, spanners, and reports.

All text files are UTF-8 with '#'-prefixed comment lines ignored.
"""

import json

from .doubling import HST, HstNode, UltrametricCover
from .metrics import PointSet, WeightedGraph
from .orderings import Ordering, OrderingFamily, TreeDecomposition


def data_lines(text):
    """Stripped lines of a text file, skipping blank and '#' comment lines."""
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def write_points(path, ps):
    with open(path, "w", encoding="utf-8") as fh:
        for row in ps.points:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_points(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in data_lines(fh.read()):
            rows.append([float(tok) for tok in line.split()])
    if not rows:
        raise ValueError(f"no points in {path}")
    return PointSet(rows)


def write_graph(path, g):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {len(g.edges)}\n")
        for u, v, w in g.edges:
            fh.write(f"{u} {v} {repr(float(w))}\n")


def read_graph(path):
    with open(path, encoding="utf-8") as fh:
        lines = list(data_lines(fh.read()))
    if not lines:
        raise ValueError(f"empty graph file {path}")
    n, m = (int(t) for t in lines[0].split())
    edges = []
    for line in lines[1 : m + 1]:
        toks = line.split()
        edges.append((int(toks[0]), int(toks[1]), float(toks[2])))
    if len(edges) != m:
        raise ValueError(f"graph file {path} declares {m} edges, found {len(edges)}")
    return WeightedGraph(n, edges)


def write_tree_decomposition(path, td, n):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"td {td.num_bags} {td.width + 1} {n}\n")
        for i, bag in enumerate(td.bags):
            fh.write("b " + " ".join(str(x) for x in [i] + list(bag)) + "\n")
        for a, b in td.tree_edges:
            fh.write(f"e {a} {b}\n")


def read_tree_decomposition(path):
    bags = {}
    edges = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in data_lines(fh.read()):
            toks = line.split()
            if toks[0] == "td":
                header = (int(toks[1]), int(toks[2]), int(toks[3]))
            elif toks[0] == "b":
                bags[int(toks[1])] = [int(t) for t in toks[2:]]
            elif toks[0] == "e":
                edges.append((int(toks[1]), int(toks[2])))
            else:
                raise ValueError(f"unknown line kind {toks[0]!r} in {path}")
    if header is None:
        raise ValueError(f"missing td header in {path}")
    num_bags = header[0]
    ordered = [bags[i] for i in range(num_bags)]
    return TreeDecomposition(ordered, edges)


def family_to_json(fam):
    return {
        "kind": fam.kind,
        "rho": fam.rho,
        "tau": fam.tau,
        "orderings": [
            {"root": o.root, "perm": list(o.perm)} for o in fam.orderings
        ],
    }


def family_from_json(doc):
    orderings = [Ordering(o["perm"], root=o.get("root")) for o in doc["orderings"]]
    return OrderingFamily(doc["kind"], orderings, rho=float(doc["rho"]), tau=int(doc["tau"]))


def write_family(path, fam):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_json(fam), fh)
        fh.write("\n")


def read_family(path):
    with open(path, encoding="utf-8") as fh:
        return family_from_json(json.load(fh))


def hst_to_json(hst):
    """Nodes numbered in preorder: labels, child ids and leaf points."""
    gamma = []
    children = []
    leaf_of = []
    stack = [(hst.root, None)]
    while stack:
        node, parent = stack.pop()
        my_id = len(gamma)
        gamma.append(node.label)
        children.append([])
        leaf_of.append(node.point if not node.children else -1)
        if parent is not None:
            children[parent].append(my_id)
        stack.extend((ch, my_id) for ch in reversed(node.children))
    return {"gamma": gamma, "children": children, "leaf_of": leaf_of}


def hst_from_json(doc):
    gamma = doc["gamma"]
    children = doc["children"]
    leaf_of = doc["leaf_of"]
    nodes = [HstNode(label=float(g)) for g in gamma]
    n = 0
    for i, kids in enumerate(children):
        nodes[i].children = [nodes[c] for c in kids]
        if not kids:
            nodes[i].point = int(leaf_of[i])
            n += 1
    return HST(nodes[0], n)


def write_cover(path, cover):
    doc = {"rho": cover.rho, "hsts": [hst_to_json(h) for h in cover.hsts]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_cover(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return UltrametricCover(
        hsts=[hst_from_json(h) for h in doc["hsts"]], rho=float(doc["rho"])
    )


def write_spanner(path, spanner):
    doc = {
        "stretch": spanner.stretch,
        "hops": spanner.hops,
        "edges": [[u, v, w] for (u, v), w in sorted(spanner.edges.items())],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_spanner_edges(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["stretch"], doc["hops"], [(int(u), int(v), float(w)) for u, v, w in doc["edges"]]


REPORT_KEYS = [
    "structure",
    "params",
    "seed",
    "num_orderings",
    "verified_pairs",
    "violations",
    "max_observed_stretch",
    "pass",
    "timings",
]


def make_report(**kwargs):
    report = {key: kwargs.get(key) for key in REPORT_KEYS}
    report["violations"] = report["violations"] or []
    report["pass"] = not report["violations"]
    return report


def write_report(path, report):
    """Write a make_report dict (already in REPORT_KEYS order)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
