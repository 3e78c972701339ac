import json

import numpy as np
import pytest

from lsorder.doubling import (
    HST,
    HstNode,
    LaminarHierarchy,
    Partition,
    _collapse,
    _rescale_labels,
    build_padded_partition_cover,
    build_ultrametric_cover,
    carve_partition,
    cover_preorder_to_triangle_lso,
    hierarchy_to_hst,
    laminarize,
)
from lsorder.fileio import hst_from_json, hst_to_json
from lsorder.metrics import LpMetric, MatrixMetric, PointSet
from lsorder.nns import build_lca_labels, lca_from_labels
from lsorder.orderings import verify_triangle


def uniform_points(n, d, seed):
    rng = np.random.default_rng(seed)
    return LpMetric(PointSet(rng.uniform(size=(n, d))))


def test_padded_cover_whole_space_single_cluster():
    m = uniform_points(30, 2, 0)
    delta = 10.0  # much larger than the diameter
    cover = build_padded_partition_cover(m, delta, t=4, seed=1)
    assert cover.tau == 1
    assert cover.partitions[0].num_clusters == 1


def test_padded_cover_uniform_metric_singletons():
    n = 10
    mat = np.ones((n, n)) - np.eye(n)
    m = MatrixMetric(mat)
    cover = build_padded_partition_cover(m, delta=0.5, t=4, seed=2)
    assert cover.partitions[0].num_clusters == n
    assert cover.tau == 1  # every singleton ball Delta/t < 1 is padded


def test_padded_cover_padding_verified_by_scan():
    m = uniform_points(200, 2, 3)
    delta, t = 0.2, 4
    cover = build_padded_partition_cover(m, delta, t, seed=4)
    mat = m.matrix()
    pad = delta / t
    for x in range(m.n):
        ball = np.nonzero(mat[x] <= pad)[0]
        assert any(
            np.all(p.assignment[ball] == p.assignment[x]) for p in cover.partitions
        ), f"point {x} not padded"
    for p in cover.partitions:
        assert p.check_bounded(mat)


def test_carve_partition_covers_and_bounds():
    m = uniform_points(80, 2, 5)
    rng = np.random.default_rng(6)
    part = carve_partition(m, 0.3, rng)
    assert part.check_bounded(m.matrix())
    assert np.all(part.assignment >= 0)


def test_laminarize_already_laminar_is_identity():
    # nested partitions: {0,1},{2,3} then {0,1,2,3}
    p0 = Partition(assignment=np.array([0, 0, 1, 1]), delta=1.0)
    p1 = Partition(assignment=np.array([0, 0, 0, 0]), delta=10.0)
    h = laminarize([p0, p1], [1.0, 10.0], eps=0.25)
    assert h.levels[1] == [(0, 1), (2, 3)]
    assert h.levels[2] == [(0, 1, 2, 3)]


def test_laminarize_split_pair_absorbed_by_first():
    # level-0 cluster {0,1} straddles two level-1 clusters; the first claims both
    p0 = Partition(assignment=np.array([0, 0, 1]), delta=1.0)
    p1 = Partition(assignment=np.array([0, 1, 1]), delta=10.0)
    h = laminarize([p0, p1], [1.0, 10.0], eps=0.25)
    assert h.levels[2][0] == (0, 1)
    assert h.levels[2][1] == (2,)


def test_laminarize_random_instance_laminar_and_bounded():
    m = uniform_points(150, 2, 7)
    mat = m.matrix()
    eps = 0.25
    rho = 4.0
    ratio = 4 * rho / eps
    deltas = [0.05 * ratio**i for i in range(3)]
    parts = []
    for i, d in enumerate(deltas):
        cov = build_padded_partition_cover(m, d, rho, seed=8 + i)
        parts.append(cov.partitions[0])
    h = laminarize(parts, deltas, eps, mat=mat)
    # laminarity: every lower cluster inside exactly one upper cluster
    for lo, hi in zip(h.levels, h.levels[1:]):
        for low_cluster in lo:
            owners = [c for c in hi if set(low_cluster) <= set(c)]
            assert len(owners) == 1
    # diameter bound per level
    for level, delta in zip(h.levels[1:], deltas):
        for cluster in level:
            idx = np.asarray(cluster)
            if idx.size > 1:
                assert mat[np.ix_(idx, idx)].max() <= (1 + eps) * delta * (1 + 1e-9)


def test_hierarchy_to_hst_singleton_chain():
    h = LaminarHierarchy(levels=[[(0,)], [(0,)]], deltas=[1.0], eps=0.25)
    hst = hierarchy_to_hst(h)
    assert hst.n == 1
    assert hst.distance_matrix()[0, 0] == 0.0


def test_hierarchy_to_hst_two_point_star():
    h = LaminarHierarchy(levels=[[(0,), (1,)], [(0, 1)]], deltas=[2.0], eps=0.25)
    hst = hierarchy_to_hst(h)
    d = hst.distance_matrix()
    assert d[0, 1] == pytest.approx(2.5)  # (1+eps)*Delta_0


def test_hst_distance_matches_lca_oracle():
    m = uniform_points(60, 2, 9)
    mat = m.matrix()
    eps = 0.25
    rho = 4.0
    ratio = 4 * rho / eps
    deltas = [0.1 * ratio**i for i in range(3)]
    parts = [build_padded_partition_cover(m, d, rho, seed=20 + i).partitions[0] for i, d in enumerate(deltas)]
    h = laminarize(parts, deltas, eps, mat=mat)
    if len(h.levels[-1]) != 1:
        pytest.skip("top level did not merge (tiny probability); covered elsewhere")
    hst = hierarchy_to_hst(h)
    d = hst.distance_matrix()
    # oracle: first level where the pair co-clusters
    for x in range(0, 60, 5):
        for y in range(x + 1, 60, 7):
            expected = None
            for li, level in enumerate(h.levels[1:]):
                if any(x in c and y in c for c in level):
                    expected = (1 + eps) * deltas[li]
                    break
            assert d[x, y] == pytest.approx(expected)


def brute_distances(hst, pairs=None):
    """d_U by walking parent pointers from each leaf up to the lca, on every
    pair or on the given (a, b) pairs."""
    parent = {}
    leaf = {}
    stack = [hst.root]
    while stack:
        node = stack.pop()
        if not node.children:
            leaf[node.point] = node
        for ch in node.children:
            parent[id(ch)] = node
            stack.append(ch)
    if pairs is None:
        pairs = [(a, b) for a in range(hst.n) for b in range(hst.n)]
    out = np.zeros((hst.n, hst.n))
    ancestors = {}
    for a, b in pairs:
        if a == b:
            continue
        if a not in ancestors:
            ancestors[a] = set()
            node = leaf[a]
            while node is not None:
                ancestors[a].add(id(node))
                node = parent.get(id(node))
        node = leaf[b]
        while id(node) not in ancestors[a]:
            node = parent[id(node)]
        out[a, b] = node.label
    return out


def reference_preorder(hst):
    """Leaf ids with children visited in ascending min-point order, by a
    recursive sort."""

    def min_point(node):
        return node.point if not node.children else min(map(min_point, node.children))

    def rec(node):
        if not node.children:
            return [node.point]
        return [p for ch in sorted(node.children, key=min_point) for p in rec(ch)]

    return rec(hst.root)


def random_tree_hst(n, seed, tie_share=0.3):
    """Random HST with children in random order; about tie_share of the
    internal children repeat their parent's label."""
    rng = np.random.default_rng(seed)

    def build(members, label):
        if len(members) == 1:
            return HstNode(label=0.0, point=int(members[0]))
        parts = int(rng.integers(2, min(len(members), 5) + 1))
        cuts = sorted(rng.choice(np.arange(1, len(members)), size=parts - 1, replace=False))
        children = []
        for g in np.split(members, cuts):
            same = len(g) > 1 and rng.random() < tie_share
            children.append(build(g, label if same else float(label * rng.uniform(0.2, 0.9))))
        return HstNode(label=float(label), children=children)

    return HST(build(rng.permutation(n), 10.0), n)


def star_hst(n, label=3.0):
    return HST(HstNode(label=label, children=[HstNode(0.0, point=p) for p in reversed(range(n))]), n)


def chain_hst(n):
    """Caterpillar: each internal node has one leaf and one deeper child."""
    node = HstNode(label=0.0, point=0)
    for depth in range(1, n):
        node = HstNode(label=float(depth), children=[node, HstNode(0.0, point=depth)])
    return HST(node, n)


@pytest.mark.parametrize(
    "hst",
    [random_tree_hst(n, seed) for n, seed in [(2, 1), (7, 2), (40, 3), (120, 4)]]
    + [random_tree_hst(60, 5, tie_share=1.0), star_hst(1), star_hst(2), star_hst(50), chain_hst(80)],
    ids=["rand2", "rand7", "rand40", "rand120", "all-ties", "n1", "n2", "star50", "chain80"],
)
def test_hst_distance_matrix_matches_brute_force(hst):
    assert np.array_equal(hst.distance_matrix(), brute_distances(hst))
    assert hst.preorder_leaves() == reference_preorder(hst)


def test_hst_distance_matrix_reads_rescaled_labels():
    hst = random_tree_hst(50, 6)
    before = hst.distance_matrix()
    _rescale_labels(hst.root, 0.37)
    after = hst.distance_matrix()
    assert np.array_equal(after, brute_distances(hst))
    assert not np.array_equal(after, before)


def test_deep_caterpillar_beyond_the_recursion_limit():
    n = 1201  # 1,200 internal levels
    hst = chain_hst(n)
    rng = np.random.default_rng(40)
    pairs = [(0, n - 1), (n - 1, 0), (n - 2, n - 1), (1, 2)]
    pairs += [tuple(int(x) for x in rng.integers(0, n, size=2)) for _ in range(400)]
    brute = brute_distances(hst, pairs)
    du = hst.distance_matrix()
    for a, b in pairs:
        assert du[a, b] == brute[a, b]
    assert hst.preorder_leaves() == list(range(n))
    back = hst_from_json(json.loads(json.dumps(hst_to_json(hst))))
    assert back.preorder_leaves() == hst.preorder_leaves()
    assert np.array_equal(back.distance_matrix(), du)
    labels = build_lca_labels(hst)
    for a, b in pairs:
        if a != b:
            assert lca_from_labels(labels[a], labels[b])[1] == du[a, b]
    _rescale_labels(hst.root, 0.5)
    assert np.array_equal(hst.distance_matrix(), du * 0.5)


def test_collapse_deep_single_child_chains():
    # a caterpillar whose every internal node hangs below a single-child wrapper
    node = HstNode(label=0.0, point=0)
    for depth in range(1, 700):
        node = HstNode(label=float(depth), children=[node, HstNode(0.0, point=depth)])
        node = HstNode(label=float(depth), children=[node])
    root = _collapse(node)
    assert root.children[1].point == 699
    hst = HST(root, 700)
    stack = [hst.root]
    while stack:
        x = stack.pop()
        assert len(x.children) in (0, 2)
        stack.extend(x.children)
    assert np.array_equal(hst.distance_matrix(), chain_hst(700).distance_matrix())


def test_cover_hsts_match_brute_force():
    cover = build_ultrametric_cover(uniform_points(50, 2, 22), t=4, seed=23)
    for hst in cover.hsts:
        assert np.array_equal(hst.distance_matrix(), brute_distances(hst))
        assert hst.preorder_leaves() == reference_preorder(hst)


@pytest.mark.parametrize(
    "level",
    [
        [(0, 1, 2), (3,)],  # (2, 3) straddles two clusters
        [(0, 1), (3,)],  # point 2 has no owner
        [(0, 1, 2), (2, 3)],  # point 2 has two owners
    ],
)
def test_hierarchy_to_hst_rejects_non_laminar(level):
    h = LaminarHierarchy(
        levels=[[(0,), (1,), (2,), (3,)], [(0, 1), (2, 3)], level, [(0, 1, 2, 3)]],
        deltas=[1.0, 2.0, 4.0],
        eps=0.25,
    )
    with pytest.raises(ValueError, match="not laminar"):
        hierarchy_to_hst(h)


def test_ultrametric_cover_two_points():
    m = LpMetric(PointSet([[0.0, 0.0], [1.0, 0.0]]))
    cover = build_ultrametric_cover(m, t=4, seed=10)
    dmin = cover.min_distance_matrix()
    assert dmin[0, 1] >= 1.0
    assert dmin[0, 1] <= 4.0


def test_ultrametric_cover_line_five_points():
    m = LpMetric(PointSet([[float(i)] for i in range(5)]))
    cover = build_ultrametric_cover(m, t=4, seed=11)
    base = m.matrix()
    dmin = cover.min_distance_matrix()
    for x in range(5):
        for y in range(x + 1, 5):
            assert dmin[x, y] >= base[x, y] - 1e-9
            assert dmin[x, y] <= 4 * base[x, y] * (1 + 1e-9)


@pytest.mark.parametrize("t", [4, 8])
def test_ultrametric_cover_plane(t):
    m = uniform_points(80, 2, 12)
    cover = build_ultrametric_cover(m, t=t, seed=13)
    base = m.matrix()
    dmin = cover.min_distance_matrix()
    iu = np.triu_indices(m.n, k=1)
    assert np.all(dmin[iu] >= base[iu] * (1 - 1e-12))  # dominating, min over HSTs
    assert np.all(dmin[iu] <= t * base[iu] * (1 + 1e-9))
    # every single HST dominates
    for h in cover.hsts:
        hm = h.distance_matrix()
        assert np.all(hm[iu] >= base[iu] * (1 - 1e-12))


def test_preorder_subtree_contiguity():
    m = uniform_points(60, 2, 14)
    cover = build_ultrametric_cover(m, t=4, seed=15)
    for hst in cover.hsts[:10]:
        order = hst.preorder_leaves()
        pos = {p: i for i, p in enumerate(order)}

        def rec(node):
            leaves = []
            if not node.children:
                return [node.point]
            for ch in node.children:
                leaves.extend(rec(ch))
            idx = sorted(pos[p] for p in leaves)
            assert idx == list(range(idx[0], idx[-1] + 1)), "subtree not contiguous"
            return leaves

        rec(hst.root)


def test_preorder_window_property_exact():
    m = uniform_points(50, 2, 16)
    cover = build_ultrametric_cover(m, t=4, seed=17)
    hst = cover.hsts[0]
    order = hst.preorder_leaves()
    du = hst.distance_matrix()
    for a in range(0, 50, 3):
        for b in range(a + 1, 50, 5):
            x, y = order[a], order[b]
            for z in order[a + 1 : b]:
                assert du[x, z] <= du[x, y]
                assert du[z, y] <= du[x, y]


def test_full_pipeline_triangle_family():
    m = uniform_points(80, 2, 18)
    t = 8
    cover = build_ultrametric_cover(m, t=t, seed=19)
    fam = cover_preorder_to_triangle_lso(cover)
    assert fam.rho == t
    rep = verify_triangle(fam, m)
    assert rep.passed, rep.summary()


def test_preorder_triangle_exact_wrt_ultrametric():
    # preorder of a single HST is a (1,1)-triangle LSO w.r.t. its own metric
    m = uniform_points(40, 2, 20)
    cover = build_ultrametric_cover(m, t=4, seed=21)
    hst = cover.hsts[0]
    from lsorder.orderings import Ordering, OrderingFamily

    fam = OrderingFamily("triangle", [Ordering(hst.preorder_leaves())], rho=1.0)
    rep = verify_triangle(fam, hst.metric())
    assert rep.passed
