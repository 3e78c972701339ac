import types
from dataclasses import dataclass

import numpy as np
import pytest

from lsorder.doubling import HST, HstNode, build_ultrametric_cover
from lsorder.euclidean import build_triangle_lso_verified
from lsorder.metrics import LpMetric, PointSet, WeightedGraph, shortest_path_metric
from lsorder.nns import (
    EmptyStructureError,
    NoSharedOrderingError,
    PredecessorSet,
    RootedNns,
    TriangleNns,
    UltrametricNns,
    assign_rooted_labels,
    assign_triangle_labels,
    build_lca_labels,
    label_budget_report,
    lca_from_labels,
)
from lsorder.orderings import build_rooted_lso_tree


class SortedListOracle:
    def __init__(self):
        self.items = []

    def insert(self, x):
        if x not in self.items:
            self.items.append(x)
            self.items.sort()

    def delete(self, x):
        if x in self.items:
            self.items.remove(x)

    def predecessor(self, q):
        c = [v for v in self.items if v <= q]
        return max(c) if c else None

    def successor(self, q):
        c = [v for v in self.items if v >= q]
        return min(c) if c else None

    def minimum(self):
        return self.items[0] if self.items else None


def test_pred_set_empty():
    s = PredecessorSet(100)
    assert s.predecessor(50) is None
    assert s.successor(50) is None
    assert s.minimum() is None


def test_pred_set_basic():
    s = PredecessorSet(10)
    s.insert(3)
    s.insert(7)
    assert s.predecessor(5) == 3
    assert s.successor(5) == 7
    assert s.predecessor(3) == 3
    assert s.minimum() == 3
    s.delete(3)
    assert s.minimum() == 7


def test_pred_set_out_of_universe():
    s = PredecessorSet(8)
    with pytest.raises(ValueError):
        s.insert(8)
    with pytest.raises(ValueError):
        s.predecessor(-1)


def test_pred_set_fuzz_vs_oracle():
    rng = np.random.default_rng(0)
    N = 1 << 20
    s = PredecessorSet(N)
    oracle = SortedListOracle()
    for _ in range(20_000):
        op = rng.integers(0, 5)
        x = int(rng.integers(0, N))
        if op == 0:
            s.insert(x)
            oracle.insert(x)
        elif op == 1 and oracle.items:
            y = oracle.items[rng.integers(0, len(oracle.items))]
            s.delete(y)
            oracle.delete(y)
        elif op == 2:
            assert s.predecessor(x) == oracle.predecessor(x)
        elif op == 3:
            assert s.successor(x) == oracle.successor(x)
        else:
            assert s.minimum() == oracle.minimum()
    assert s.members() == oracle.items


def random_hst(n, seed, top_label=64.0):
    rng = np.random.default_rng(seed)
    ids = list(rng.permutation(n))

    def build(members, label):
        if len(members) == 1:
            return HstNode(label=0.0, point=int(members[0]))
        parts = max(2, min(len(members), int(rng.integers(2, 5))))
        cuts = sorted(rng.choice(range(1, len(members)), size=parts - 1, replace=False))
        groups = []
        prev = 0
        for c in list(cuts) + [len(members)]:
            groups.append(members[prev:c])
            prev = c
        children = []
        for g in groups:
            child_label = 0.0 if len(g) == 1 else float(label * rng.uniform(0.3, 0.8))
            children.append(build(g, child_label))
        return HstNode(label=float(label), children=children)

    return HST(build(ids, top_label), n)


def naive_lca(hst):
    parent = {}

    def walk(node):
        for ch in node.children:
            parent[id(ch)] = node
            walk(ch)

    walk(hst.root)
    leaves = {}

    def collect(node):
        if not node.children:
            leaves[node.point] = node
        for ch in node.children:
            collect(ch)

    collect(hst.root)

    def lca(a, b):
        ancestors = set()
        node = leaves[a]
        while node is not None:
            ancestors.add(id(node))
            node = parent.get(id(node))
        node = leaves[b]
        while id(node) not in ancestors:
            node = parent[id(node)]
        return node

    return lca


def test_lca_labels_two_leaves():
    hst = HST(
        HstNode(label=5.0, children=[HstNode(0.0, point=0), HstNode(0.0, point=1)]),
        2,
    )
    labels = build_lca_labels(hst)
    _, lab = lca_from_labels(labels[0], labels[1])
    assert lab == 5.0


def test_lca_labels_caterpillar():
    # path-shaped: each internal node has one leaf child and one deeper child
    leaf_ids = list(range(8))
    node = HstNode(label=0.0, point=leaf_ids[-1])
    for depth, pid in enumerate(reversed(leaf_ids[:-1])):
        node = HstNode(
            label=float(depth + 1),
            children=[HstNode(0.0, point=pid), node],
        )
    hst = HST(node, 8)
    labels = build_lca_labels(hst)
    oracle = naive_lca(hst)
    for a in range(8):
        for b in range(8):
            if a == b:
                continue
            _, lab = lca_from_labels(labels[a], labels[b])
            assert lab == oracle(a, b).label


@pytest.mark.parametrize("n,seed", [(64, 1), (256, 2), (512, 3)])
def test_lca_labels_random_hst(n, seed):
    hst = random_hst(n, seed)
    labels = build_lca_labels(hst)
    oracle = naive_lca(hst)
    budget = 4 * (int(np.ceil(np.log2(n))) + 1)
    assert max(len(l.spine) for l in labels.values()) <= budget
    rng = np.random.default_rng(seed + 10)
    for _ in range(3000):
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        node_id, lab = lca_from_labels(labels[int(a)], labels[int(b)])
        o = oracle(int(a), int(b))
        assert lab == o.label


@pytest.mark.parametrize("n,seed", [(2, 11), (40, 12), (200, 13)])
def test_lca_labels_agree_with_distance_matrix(n, seed):
    hst = random_hst(n, seed)
    labels = build_lca_labels(hst)
    du = hst.distance_matrix()
    for a in range(n):
        for b in range(n):
            if a != b:
                assert lca_from_labels(labels[a], labels[b])[1] == du[a, b]


def test_lca_labels_agree_with_distance_matrix_on_cover():
    rng = np.random.default_rng(14)
    cover = build_ultrametric_cover(LpMetric(PointSet(rng.uniform(size=(40, 2)))), t=4, seed=15)
    for hst in cover.hsts[:8]:
        labels = build_lca_labels(hst)
        du = hst.distance_matrix()
        for a in range(hst.n):
            for b in range(a + 1, hst.n):
                assert lca_from_labels(labels[a], labels[b])[1] == du[a, b]


def test_ultrametric_nns_self():
    hst = random_hst(16, 4)
    nns = UltrametricNns(hst)
    nns.insert(5)
    assert nns.query(5) == (5, 0.0)


def test_ultrametric_nns_star():
    children = [HstNode(0.0, point=i) for i in range(6)]
    hst = HST(HstNode(label=3.0, children=children), 6)
    nns = UltrametricNns(hst)
    nns.insert(2)
    point, dist = nns.query(0)
    assert dist == 3.0


def test_ultrametric_nns_empty_error():
    hst = random_hst(8, 5)
    nns = UltrametricNns(hst)
    with pytest.raises(EmptyStructureError):
        nns.query(0)


@pytest.mark.parametrize("n,seed", [(64, 6), (256, 7)])
def test_ultrametric_nns_matches_linear_scan(n, seed):
    hst = random_hst(n, seed)
    du = hst.distance_matrix()
    nns = UltrametricNns(hst)
    rng = np.random.default_rng(seed)
    stored = sorted(rng.choice(n, size=n // 3, replace=False).tolist())
    for pid in stored:
        nns.insert(pid)
    for q in rng.integers(0, n, size=500):
        q = int(q)
        point, dist = nns.query(q)
        expected = min(du[q, s] for s in stored)
        assert dist == expected


def test_ultrametric_nns_dynamic():
    hst = random_hst(64, 8)
    du = hst.distance_matrix()
    nns = UltrametricNns(hst)
    rng = np.random.default_rng(9)
    stored = set()
    for step in range(300):
        if stored and rng.random() < 0.4:
            pid = int(rng.choice(sorted(stored)))
            nns.delete(pid)
            stored.discard(pid)
        else:
            pid = int(rng.integers(0, 64))
            nns.insert(pid)
            stored.add(pid)
        if stored:
            q = int(rng.integers(0, 64))
            _, dist = nns.query(q)
            assert dist == min(du[q, s] for s in stored)


def random_tree(n, seed):
    rng = np.random.default_rng(seed)
    return WeightedGraph(
        n, [(int(rng.integers(0, v)), v, float(rng.integers(1, 5))) for v in range(1, n)]
    )


def test_rooted_nns_root_only():
    g = random_tree(20, 10)
    fam = build_rooted_lso_tree(g)
    metric = shortest_path_metric(g)
    labels = assign_rooted_labels(fam, metric)
    nns = RootedNns(fam, labels)
    root = fam.orderings[0].root
    nns.insert(root)
    for q in range(20):
        if q == root:
            continue
        ans, est = nns.query(labels[q])
        assert ans == root
        assert est == metric.dist(q, root)


def test_rooted_nns_tree_exact():
    g = random_tree(60, 11)
    fam = build_rooted_lso_tree(g)
    metric = shortest_path_metric(g)
    mat = metric.matrix()
    labels = assign_rooted_labels(fam, metric)
    budget = max(len(l.entries) for l in labels.values())
    assert budget <= fam.tau
    rng = np.random.default_rng(12)
    for trial in range(40):
        stored = sorted(rng.choice(60, size=int(rng.integers(1, 30)), replace=False).tolist())
        nns = RootedNns(fam, labels)
        for pid in stored:
            nns.insert(pid)
        for q in rng.integers(0, 60, size=10):
            q = int(q)
            if q in stored:
                assert nns.query(labels[q]) == (q, 0.0)
                continue
            ans, est = nns.query(labels[q])
            true_min = min(mat[q, s] for s in stored)
            assert est >= mat[q, ans] - 1e-12  # estimate dominates
            assert mat[q, ans] <= true_min * (1 + 1e-12)  # rho = 1 forces exact
            assert est <= true_min * (1 + 1e-12)


def test_rooted_nns_no_shared_ordering():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    fam = build_rooted_lso_tree(g)
    metric = shortest_path_metric(g)
    labels = assign_rooted_labels(fam, metric)
    nns = RootedNns(fam, labels)
    with pytest.raises(EmptyStructureError):
        nns.query(labels[0])


def test_rooted_nns_rebuild_equivalence():
    g = random_tree(40, 13)
    fam = build_rooted_lso_tree(g)
    metric = shortest_path_metric(g)
    labels = assign_rooted_labels(fam, metric)
    rng = np.random.default_rng(14)
    dyn = RootedNns(fam, labels)
    stored = set()
    for step in range(200):
        if stored and rng.random() < 0.45:
            pid = int(rng.choice(sorted(stored)))
            dyn.delete(pid)
            stored.discard(pid)
        else:
            pid = int(rng.integers(0, 40))
            dyn.insert(pid)
            stored.add(pid)
        if stored and step % 10 == 0:
            fresh = RootedNns(fam, labels)
            for pid in sorted(stored):
                fresh.insert(pid)
            for q in rng.integers(0, 40, size=5):
                q = int(q)
                assert dyn.query(labels[q]) == fresh.query(labels[q])


def euclid_family(n, d, seed):
    rng = np.random.default_rng(seed)
    ps = PointSet(rng.uniform(size=(n, d)))
    fam = build_triangle_lso_verified(ps, p=2, t=4.0, delta=0.5, seed=seed)
    return ps, fam


def test_triangle_nns_bound_and_domination():
    ps, fam = euclid_family(60, 2, 15)
    metric = LpMetric(ps)
    mat = metric.matrix()
    labels, hop = assign_triangle_labels(fam, metric)
    # |E_p| per ordering: the finite levels, plus p itself at p = 2^delta
    budget = max(
        int((np.isfinite(lab.weights).sum(axis=1) + (lab.positions == 1 << hop.delta)).max())
        for lab in labels.values()
    )
    assert budget <= hop.delta + 1
    rho = fam.meta["verification"].max_observed_stretch
    rng = np.random.default_rng(16)
    nns = TriangleNns(fam, labels, hop)
    stored = sorted(rng.choice(60, size=25, replace=False).tolist())
    for pid in stored:
        nns.insert(pid)
    for q in range(60):
        if q in stored:
            continue
        ans, est = nns.query(labels[q])
        true_min = min(mat[q, s] for s in stored)
        assert est >= mat[q, ans] - 1e-12
        assert mat[q, ans] <= 2 * rho * true_min * (1 + 1e-9)
        assert est <= 2 * rho * true_min * (1 + 1e-9)


def test_triangle_nns_update_fuzz_rebuild_equivalence():
    ps, fam = euclid_family(40, 2, 17)
    metric = LpMetric(ps)
    labels, hop = assign_triangle_labels(fam, metric)
    rng = np.random.default_rng(18)
    dyn = TriangleNns(fam, labels, hop)
    stored = set()
    for step in range(400):
        if stored and rng.random() < 0.45:
            pid = int(rng.choice(sorted(stored)))
            dyn.delete(pid)
            stored.discard(pid)
        else:
            pid = int(rng.integers(0, 40))
            dyn.insert(pid)
            stored.add(pid)
        if stored and step % 20 == 0:
            fresh = TriangleNns(fam, labels, hop)
            for pid in sorted(stored):
                fresh.insert(pid)
            for q in rng.integers(0, 40, size=5):
                q = int(q)
                assert dyn.query(labels[q]) == fresh.query(labels[q])


def test_triangle_nns_empty():
    ps, fam = euclid_family(10, 2, 19)
    labels, hop = assign_triangle_labels(fam, LpMetric(ps))
    nns = TriangleNns(fam, labels, hop)
    with pytest.raises(EmptyStructureError):
        nns.query(labels[0])


def test_label_budget_report():
    g = random_tree(30, 21)
    fam = build_rooted_lso_tree(g)
    metric = shortest_path_metric(g)
    labels = assign_rooted_labels(fam, metric)
    budget = label_budget_report(labels)
    assert budget["max_entries"] <= fam.tau
    ps, efam = euclid_family(30, 2, 22)
    elabels, hop = assign_triangle_labels(efam, LpMetric(ps))
    ebudget = label_budget_report(elabels)
    assert ebudget["max_entries"] <= len(efam.orderings) * (hop.delta + 2)


# --- triangle NNS against the dict-of-lists reference -----------------------


@dataclass
class RefTriangleLabel:
    point: int
    positions: dict  # ordering id -> 1-indexed position
    midpoints: dict  # ordering id -> list of (midpoint position, metric distance)


def ref_triangle_labels(fam, metric, hop):
    """Per ordering: position plus E_p with true metric weights, as lists."""
    mat = metric.matrix()
    labels = {}
    for oid, o in enumerate(fam.orderings):
        for pos0, pid in enumerate(o.perm):
            lab = labels.setdefault(pid, RefTriangleLabel(pid, {}, {}))
            lab.positions[oid] = pos0 + 1
            lab.midpoints[oid] = [
                (l, float(mat[pid, o.perm[l - 1]])) for l in hop.edges_of(pos0 + 1)
            ]
    return labels


def ref_mid_weight(label, oid, mid_pos):
    if label.positions[oid] == mid_pos:
        return 0.0
    for pos, dist in label.midpoints[oid]:
        if pos == mid_pos:
            return dist
    raise KeyError(f"midpoint {mid_pos} not in label of {label.point} (ordering {oid})")


class RefTriangleNns:
    """Scalar query: per ordering pred/succ, midpoint by hop.query, weights by
    a linear label scan; lexicographic min of (estimate, point)."""

    def __init__(self, num_orderings, labels, hop):
        self.labels = labels
        self.hop = hop
        self.structs = [SortedListOracle() for _ in range(num_orderings)]
        self.point_at = {}
        self.current = set()

    def insert(self, pid):
        if pid in self.current:
            return
        self.current.add(pid)
        for oid, pos in self.labels[pid].positions.items():
            self.structs[oid].insert(pos)
            self.point_at[(oid, pos)] = pid

    def delete(self, pid):
        if pid not in self.current:
            return
        self.current.discard(pid)
        for oid, pos in self.labels[pid].positions.items():
            self.structs[oid].delete(pos)
            del self.point_at[(oid, pos)]

    def query(self, q_label):
        if not self.current:
            raise EmptyStructureError("no points stored")
        if q_label.point in self.current:
            return q_label.point, 0.0
        best = None
        for oid, qpos in q_label.positions.items():
            s = self.structs[oid]
            for cand_pos in (s.predecessor(qpos), s.successor(qpos)):
                if cand_pos is None:
                    continue
                mid = self.hop.query(qpos, cand_pos)
                cand = self.point_at[(oid, cand_pos)]
                est = ref_mid_weight(q_label, oid, mid) + ref_mid_weight(self.labels[cand], oid, mid)
                if best is None or est < best[1] or (est == best[1] and cand < best[0]):
                    best = (cand, est)
        return best


class GuardedLabels:
    """Label mapping that fails on a point never inserted nor queried."""

    def __init__(self, labels):
        self._labels = labels
        self.allowed = set()

    def __getitem__(self, pid):
        if pid not in self.allowed:
            raise AssertionError(f"label of point {pid} read; it was never inserted or queried")
        return self._labels[pid]


def triangle_fuzz(n, d, seed, steps, guarded=False):
    """Insert/delete/query fuzz of TriangleNns against RefTriangleNns; every
    answer must match bit for bit.  With guarded=True the structure sees the
    labels through GuardedLabels and a family without its orderings."""
    ps, fam = euclid_family(n, d, seed)
    metric = LpMetric(ps)
    labels, hop = assign_triangle_labels(fam, metric)
    ref_labels = ref_triangle_labels(fam, metric, hop)
    ref = RefTriangleNns(len(fam.orderings), ref_labels, hop)
    view = GuardedLabels(labels) if guarded else labels
    shell = types.SimpleNamespace(rho=fam.rho, tau=fam.tau) if guarded else fam
    dyn = TriangleNns(shell, view, hop)
    rng = np.random.default_rng(seed + 1)
    queries = 0
    for _ in range(steps):
        r = rng.random()
        pid = int(rng.integers(0, n))
        if guarded and r >= 0.25:
            view.allowed.add(pid)  # inserted or queried from here on
        if r < 0.25:
            dyn.delete(pid)
            ref.delete(pid)
        elif r < 0.55:
            dyn.insert(pid)
            ref.insert(pid)
        elif not ref.current:
            with pytest.raises(EmptyStructureError):
                dyn.query(labels[pid])
        else:
            got = dyn.query(labels[pid])
            want = ref.query(ref_labels[pid])
            assert type(got[0]) is int and type(got[1]) is float
            assert (got[0], got[1].hex()) == (want[0], want[1].hex())
            queries += 1
    return queries


@pytest.mark.parametrize("n", [1, 2, 3, 16, 40, 96])
@pytest.mark.parametrize("d", [2, 4])
def test_triangle_nns_matches_scalar_reference(n, d):
    assert triangle_fuzz(n, d, seed=100 * n + d, steps=400) > 0


@pytest.mark.parametrize("n", [16, 40])
def test_triangle_nns_reads_only_stored_and_query_labels(n):
    assert triangle_fuzz(n, 2, seed=7 * n, steps=600, guarded=True) > 0


@pytest.mark.parametrize("n", [1, 2, 3, 16, 40, 96])
def test_triangle_label_sizes_count_midpoint_edges(n):
    ps, fam = euclid_family(n, 2, 300 + n)
    labels, hop = assign_triangle_labels(fam, LpMetric(ps))
    sizes = [
        sum(1 + len(hop.edges_of(int(pos))) for pos in lab.positions) for lab in labels.values()
    ]
    report = label_budget_report(labels)
    assert report == {"max_entries": max(sizes), "mean_entries": float(np.mean(sizes))}
    assert type(report["max_entries"]) is int
