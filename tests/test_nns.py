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
    budget = max(len(m) for lab in labels.values() for m in lab.midpoints.values())
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
    from lsorder.nns import label_budget_report

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
