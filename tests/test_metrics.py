import math

import numpy as np
import pytest

from lsorder import metrics
from lsorder.metrics import (
    LpMetric,
    MatrixMetric,
    PointSet,
    WeightedGraph,
    build_epsilon_net,
    components,
    dijkstra,
    floor_log2,
    graph_distances,
    lp_distance,
    shortest_path_metric,
    tree_centroid,
)


def bellman_ford(g, source):
    """Exhaustive relaxation oracle: repeated full-edge relaxation."""
    dist = [math.inf] * g.n
    dist[source] = 0.0
    for _ in range(g.n):
        changed = False
        for u, v, w in g.edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def random_connected_graph(n, extra, seed):
    # dyadic weights keep shortest-path sums exact in binary floating point
    rng = np.random.default_rng(seed)

    def w():
        return float(rng.integers(26, 512)) / 256.0

    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, w()))
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v), w()))
    return WeightedGraph(n, edges)


def test_lp_distance_identity_and_axis():
    assert lp_distance((0, 0), (0, 0), 2) == 0
    assert lp_distance((1, 1), (0, 0), 1) == 2
    assert lp_distance((1, 1), (0, 0), 2) == pytest.approx(math.sqrt(2))
    assert lp_distance((1, 1), (0, 0), math.inf) == 1


def test_lp_distance_errors():
    with pytest.raises(ValueError):
        lp_distance((1, 2), (1, 2, 3), 2)
    with pytest.raises(ValueError):
        lp_distance((1,), (2,), 0.5)


def test_norm_comparison_random_d8():
    rng = np.random.default_rng(7)
    d = 8
    for _ in range(200):
        x, y = rng.normal(size=d), rng.normal(size=d)
        d1 = lp_distance(x, y, 1)
        d2 = lp_distance(x, y, 2)
        assert d2 <= d1 * (1 + 1e-12)
        assert d1 <= math.sqrt(d) * d2 * (1 + 1e-12)
        # direct summation cross-check
        assert d1 == pytest.approx(float(np.sum(np.abs(x - y))))
        assert d2 == pytest.approx(float(np.sqrt(np.sum((x - y) ** 2))))


def test_graph_distances_path():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    dist = graph_distances(g)
    assert dist[0][2] == 2.0
    assert dist[2][0] == 2.0


def test_graph_distances_single_vertex():
    g = WeightedGraph(1, [])
    assert graph_distances(g)[0][0] == 0.0


def test_graph_distances_disconnected_names_vertex():
    g = WeightedGraph(3, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="2"):
        graph_distances(g)


def test_graph_distances_vs_relaxation_oracle():
    g = random_connected_graph(20, 30, seed=11)
    dist = graph_distances(g)
    for s in range(g.n):
        oracle = bellman_ford(g, s)
        assert np.allclose(dist[s], oracle)


def test_metric_matrix_symmetric_vs_pointwise():
    rng = np.random.default_rng(3)
    ps = PointSet(rng.uniform(size=(40, 3)))
    for p in (1, 1.5, 2, math.inf):
        m = LpMetric(ps, p)
        mat = m.matrix()
        assert np.allclose(mat, mat.T)
        for _ in range(50):
            i, j = rng.integers(0, 40, size=2)
            assert mat[i, j] == pytest.approx(m.dist(i, j))


def one_shot_lp_matrix(pts, p):
    """Reference: the whole n x n x d difference array at once."""
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    if p == math.inf:
        return diff.max(axis=2)
    if p == 2:
        return np.sqrt((diff * diff).sum(axis=2))
    if p == 1:
        return diff.sum(axis=2)
    return (diff**p).sum(axis=2) ** (1.0 / p)


@pytest.mark.parametrize("p", [1, 1.5, 2, math.inf])
def test_lp_matrix_row_blocks_bitwise_equal_one_shot(p, monkeypatch):
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(37, 5)) * 10.0 ** rng.integers(-3, 4, size=(37, 1))
    expected = one_shot_lp_matrix(pts, p)
    for rows in (1, 2, 5, 36, 37, 100):  # uneven last blocks, one block, more than n
        monkeypatch.setattr(metrics, "MATRIX_BLOCK_FLOATS", rows * 37 * 5)
        assert LpMetric(PointSet(pts), p).matrix().tobytes() == expected.tobytes(), rows
    monkeypatch.undo()
    # at the default block size, 1100 points in 3 dimensions take two blocks
    big = rng.uniform(size=(1100, 3))
    assert metrics.MATRIX_BLOCK_FLOATS // (1100 * 3) < 1100
    assert np.array_equal(LpMetric(PointSet(big), p).matrix(), one_shot_lp_matrix(big, p))


def test_metric_axioms_sampled_triples():
    rng = np.random.default_rng(5)
    ps = PointSet(rng.uniform(size=(60, 4)))
    g = random_connected_graph(40, 60, seed=13)
    views = [LpMetric(ps, 2), LpMetric(ps, 1), LpMetric(ps, math.inf), shortest_path_metric(g)]
    for metric in views:
        mat = metric.matrix()
        n = metric.n
        idx = rng.integers(0, n, size=(12000, 3))
        a, b, c = idx[:, 0], idx[:, 1], idx[:, 2]
        assert np.all(mat[a, b] == mat[b, a])
        assert np.all(np.diag(mat) == 0)
        slack = 4 * np.spacing(np.maximum(mat[a, b], mat[a, c] + mat[c, b]))
        assert np.all(mat[a, b] <= mat[a, c] + mat[c, b] + slack)


def test_epsilon_net_trivial():
    ps = PointSet([[0.0, 0.0]])
    assert build_epsilon_net(LpMetric(ps), r=1.0) == [0]


def test_epsilon_net_two_points_large_radius():
    ps = PointSet([[0.0], [1.0]])
    assert len(build_epsilon_net(LpMetric(ps), r=2.0)) == 1


def test_epsilon_net_invariants_full_scan():
    rng = np.random.default_rng(17)
    ps = PointSet(rng.uniform(size=(100, 2)))
    metric = LpMetric(ps)
    r = 0.3
    members = build_epsilon_net(metric, r)
    mat = metric.matrix()
    for a_i, i in enumerate(members):
        for j in members[a_i + 1 :]:
            assert mat[i, j] >= r
    for x in range(ps.n):
        assert min(mat[x, j] for j in members) <= r


@pytest.mark.parametrize("r", [0.02, 0.1, 0.3, 1.0, 5.0])
def test_epsilon_net_equals_greedy_scan(r):
    rng = np.random.default_rng(18)
    metric = MatrixMetric(LpMetric(PointSet(rng.uniform(size=(120, 3)))).matrix())
    greedy = []
    for i in range(metric.n):
        if all(metric.dist(i, j) >= r for j in greedy):
            greedy.append(i)
    assert build_epsilon_net(metric, r) == greedy


def test_matrix_metric_validation():
    with pytest.raises(ValueError):
        MatrixMetric([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        MatrixMetric([[1.0]])


# --- graph layer ----------------------------------------------------------


def induced_components_reference(g, subset):
    """Union-find over the edges with both ends in subset."""
    root = {v: v for v in subset}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v, _ in g.edges:
        if u in root and v in root:
            root[find(u)] = find(v)
    groups = {}
    for v in subset:
        groups.setdefault(find(v), []).append(v)
    return sorted((sorted(c) for c in groups.values()), key=lambda c: c[0])


@pytest.mark.parametrize("seed", range(4))
def test_components_match_bruteforce(seed):
    g = random_connected_graph(40, 10, seed=seed)
    rng = np.random.default_rng(100 + seed)
    subset = {int(v) for v in rng.choice(g.n, size=22, replace=False)}
    expected = induced_components_reference(g, subset)
    assert len(expected) > 1
    assert components(g.adjacency(), subset) == expected


@pytest.mark.parametrize("seed", range(4))
def test_dijkstra_within_matches_induced_subgraph(seed):
    g = random_connected_graph(40, 25, seed=seed)
    rng = np.random.default_rng(200 + seed)
    subset = {int(v) for v in rng.choice(g.n, size=28, replace=False)}
    adj = g.adjacency()
    for comp in induced_components_reference(g, subset):
        index = {v: i for i, v in enumerate(comp)}
        sub = WeightedGraph(
            len(comp), [(index[u], index[v], w) for u, v, w in g.edges if u in index and v in index]
        )
        ref = graph_distances(sub)
        for s in comp:
            dist = dijkstra(adj, s, within=subset)
            assert [dist[v] for v in comp] == ref[index[s]].tolist()
            assert all(math.isinf(dist[v]) for v in range(g.n) if v not in index)


def test_tree_centroid_tie_break_on_paths():
    # even path: two centers, the lower id wins; odd path: the unique middle
    even = [0, 4, 5, 2, 3, 1]
    odd = [6, 0, 4, 5, 2, 3, 1]
    for order, expected in ((even, 2), (odd, 5)):
        g = WeightedGraph(len(order), [(a, b, 1.0) for a, b in zip(order, order[1:])])
        assert tree_centroid(g.adjacency(), set(order)) == expected
    # within an alive sub-path 4-5-2-3 the centers are 5 and 2
    g = WeightedGraph(6, [(a, b, 1.0) for a, b in zip(even, even[1:])])
    assert tree_centroid(g.adjacency(), {4, 5, 2, 3}) == 2
    assert tree_centroid(g.adjacency(), {3}) == 3


def test_is_tree_rejects_disconnected_graph_with_n_minus_1_edges():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert not g.is_tree()
    assert WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).is_tree()


def test_floor_log2_exact():
    vals = [v for k in range(1, 63) for v in range((1 << k) - 2, (1 << k) + 3) if v > 0]
    vals += [(1 << 63) - 1]
    vals += np.random.default_rng(0).integers(1, 1 << 63, size=20_000, dtype=np.int64).tolist()
    assert floor_log2(np.asarray(vals, dtype=np.int64)).tolist() == [v.bit_length() - 1 for v in vals]
