import math

import numpy as np
import pytest

from lsorder import orderings, spanners
from lsorder.doubling import build_ultrametric_cover, cover_preorder_to_triangle_lso
from lsorder.euclidean import build_classic_grid_lso, build_triangle_lso_verified
from lsorder.metrics import (
    LpMetric,
    MatrixMetric,
    PointSet,
    WeightedGraph,
    dijkstra,
    shortest_path_metric,
)
from lsorder.nns import assign_rooted_labels, assign_triangle_labels
from lsorder.orderings import (
    Ordering,
    OrderingFamily,
    TreeDecomposition,
    build_rooted_lso_tree,
    build_rooted_lso_treewidth,
)
from lsorder.spanners import (
    SpdDecomposition,
    SpdNode,
    ft_spanner_from_family,
    pr_spanner_from_classic,
    pr_spanner_from_rooted,
    pr_spanner_from_triangle,
    sparse_cover_spanner,
    spanner_oracle_classic,
    spanner_oracle_triangle,
    spd_spanner,
    tree_heavy_path_spd,
    treewidth_bag_spd,
    tz_spanner,
)


def shortest_paths_on_edges(n, edges, sources):
    """Distances from each source over an explicit edge list (for oracle
    stretch checks); unreachable vertices stay at inf."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return {s: dijkstra(adj, s) for s in sources}


def verify_padding(cover):
    """Cover padding: every Delta-ball around a point sits in its home
    cluster; radius bound (2k-1)*Delta per cluster."""
    for scale in cover.scales:
        for center, members in scale.clusters:
            row = cover.mat[center, members]
            if np.any(row > (2 * cover.k - 1) * scale.delta * (1 + 1e-9)):
                return False
        for p in range(cover.n):
            cidx = scale.home.get(p)
            if cidx is None:
                return False
            members = set(scale.clusters[cidx][1])
            ball = np.nonzero(cover.mat[p] <= scale.delta)[0]
            if not set(ball.tolist()) <= members:
                return False
    return True


def random_metric(n, seed):
    """Random symmetric weights metricized by shortest-path closure."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(1.0, 10.0, size=(n, n))
    raw = (raw + raw.T) / 2
    np.fill_diagonal(raw, 0.0)
    g = WeightedGraph(
        n, [(i, j, float(raw[i, j])) for i in range(n) for j in range(i + 1, n)]
    )
    return shortest_path_metric(g)


def random_tree(n, seed):
    rng = np.random.default_rng(seed)
    return WeightedGraph(
        n, [(int(rng.integers(0, v)), v, float(rng.integers(1, 5))) for v in range(1, n)]
    )


def line_family(values, rho):
    ps = PointSet([[v] for v in values])
    order = list(np.argsort(values, kind="stable"))
    return ps, OrderingFamily("classic", [Ordering(order)], rho=rho)


def check_all_pairs(spanner, metric, bound, sample=None):
    mat = metric.matrix()
    n = metric.n
    rng = np.random.default_rng(0)
    pairs = (
        [(u, v) for u in range(n) for v in range(u + 1, n)]
        if sample is None
        else [tuple(sorted(rng.choice(n, size=2, replace=False))) for _ in range(sample)]
    )
    worst = 0.0
    for u, v in pairs:
        if u == v or mat[u, v] == 0:
            continue
        out = spanner.query(u, v)
        path, w = out[0], out[1]
        spanner.check_path(path)
        assert len(path) - 1 <= spanner.hops
        assert w <= bound * mat[u, v] * (1 + 1e-9), (u, v, w, mat[u, v])
        worst = max(worst, w / mat[u, v])
    return worst


def test_classic_spanner_two_points():
    ps, fam = line_family([0.0, 1.0], rho=0.5)
    sp = pr_spanner_from_classic(fam, LpMetric(ps, 1))
    path, w = sp.query(0, 1)
    assert path == [0, 1]
    assert w == 1.0


def test_classic_spanner_sorted_reals():
    rng = np.random.default_rng(1)
    vals = np.sort(rng.uniform(0, 100, size=60))
    ps, fam = line_family(vals, rho=0.5)
    metric = LpMetric(ps, 1)
    sp = pr_spanner_from_classic(fam, metric)
    check_all_pairs(sp, metric, bound=1 + 2 * 0.5)
    # monotone reporting on the line: middle point lies between the endpoints
    for u, v in [(0, 59), (3, 40), (10, 11)]:
        path, _ = sp.query(u, v)
        assert all(vals[u] <= vals[z] <= vals[v] for z in path)


def test_classic_spanner_grid_family():
    rng = np.random.default_rng(2)
    ps = PointSet(rng.uniform(size=(100, 2)))
    grid = build_classic_grid_lso(ps, eps=0.25, seed=3)
    metric = LpMetric(ps)
    sp = pr_spanner_from_classic(grid.family, metric)
    assert sp.stretch == pytest.approx(1.5)
    # vectorized all-pairs weights match the stretch bound and scalar queries
    weights = sp.all_pairs_weights()
    mat = metric.matrix()
    iu = np.triu_indices(100, k=1)
    assert np.all(weights[iu] <= sp.stretch * mat[iu] * (1 + 1e-9))
    for u, v in [(0, 1), (5, 50), (17, 99), (33, 34)]:
        _, w = sp.query(u, v)
        assert w == pytest.approx(weights[u, v])


def test_triangle_spanner_doubling_family():
    rng = np.random.default_rng(4)
    ps = PointSet(rng.uniform(size=(70, 2)))
    metric = LpMetric(ps)
    cover = build_ultrametric_cover(metric, t=8, seed=5)
    fam = cover_preorder_to_triangle_lso(cover)
    sp = pr_spanner_from_triangle(fam, metric)
    assert sp.stretch == pytest.approx(16.0)
    weights = sp.all_pairs_weights()
    mat = metric.matrix()
    iu = np.triu_indices(70, k=1)
    assert np.all(weights[iu] <= sp.stretch * mat[iu] * (1 + 1e-9))
    check_all_pairs(sp, metric, bound=sp.stretch, sample=150)


def test_rooted_spanner_star():
    g = WeightedGraph(6, [(0, i, float(i)) for i in range(1, 6)])
    metric = shortest_path_metric(g)
    fam = OrderingFamily("rooted", [Ordering([0, 1, 2, 3, 4, 5], root=0)], rho=1.0)
    sp = pr_spanner_from_rooted(fam, metric)
    check_all_pairs(sp, metric, bound=1.0)
    assert sp.num_edges() == 5


def test_rooted_spanner_tree_exact():
    g = random_tree(80, 6)
    metric = shortest_path_metric(g)
    fam = build_rooted_lso_tree(g)
    sp = pr_spanner_from_rooted(fam, metric)
    worst = check_all_pairs(sp, metric, bound=1.0)
    assert worst <= 1.0 + 1e-9
    assert sp.num_edges() <= 80 * (math.ceil(math.log2(80)) + 1)
    weights = sp.all_pairs_weights()
    assert np.allclose(weights, metric.matrix())


def test_rooted_spanner_treewidth_exact():
    # 4x4 grid with the sliding-window width-4 decomposition
    edges = []
    for r in range(4):
        for c in range(4):
            v = r * 4 + c
            if c + 1 < 4:
                edges.append((v, v + 1, 1.0))
            if r + 1 < 4:
                edges.append((v, v + 4, 1.0))
    g = WeightedGraph(16, edges)
    td = TreeDecomposition(
        [list(range(k, k + 5)) for k in range(12)], [(i, i + 1) for i in range(11)]
    )
    fam = build_rooted_lso_treewidth(g, td)
    metric = shortest_path_metric(g)
    sp = pr_spanner_from_rooted(fam, metric)
    worst = check_all_pairs(sp, metric, bound=1.0)
    assert worst <= 1.0 + 1e-9


# --- SPD ------------------------------------------------------------------


def test_spd_path_graph_depth_one():
    g = WeightedGraph(8, [(i, i + 1, float(i % 3 + 1)) for i in range(7)])
    spd = SpdDecomposition(graph=g, root=SpdNode(component=list(range(8)), path=list(range(8))))
    spd.validate()
    sp = spd_spanner(spd, eps=0.25)
    metric = shortest_path_metric(g)
    worst = check_all_pairs(sp, metric, bound=1.25)
    assert worst <= 1.0 + 1e-9  # landmarks on the path give exact distances


def test_spd_heavy_path_tree_depth_bound():
    for n, seed in [(40, 7), (100, 8), (127, 9)]:
        g = random_tree(n, seed)
        spd = tree_heavy_path_spd(g)
        spd.validate()
        assert spd.depth() <= math.ceil(math.log2(n)) + 1


def test_spd_path_graph_is_depth_one_via_heavy_walk():
    g = WeightedGraph(9, [(i, i + 1, 1.0) for i in range(8)])
    spd = tree_heavy_path_spd(g)
    assert spd.depth() == 1


def test_spd_spanner_star():
    g = WeightedGraph(10, [(0, i, float(i)) for i in range(1, 10)])
    spd = tree_heavy_path_spd(g)
    sp = spd_spanner(spd, eps=0.25)
    metric = shortest_path_metric(g)
    check_all_pairs(sp, metric, bound=1.25)


def test_spd_spanner_random_tree():
    g = random_tree(60, 10)
    spd = tree_heavy_path_spd(g)
    eps = 0.25
    sp = spd_spanner(spd, eps)
    metric = shortest_path_metric(g)
    check_all_pairs(sp, metric, bound=1 + eps)
    # candidate counting: <= depth * O(1/eps)
    depth = spd.depth()
    cap = max(1, int(math.ceil(2.0 / eps))) + 2
    per_level = 2 * (2 * cap + 3)
    for u, v in [(0, 59), (5, 40), (13, 27)]:
        sp.query(u, v)
        assert sp.last_candidates <= depth * per_level


def test_spd_treewidth_bags():
    edges = []
    for r in range(3):
        for c in range(3):
            v = r * 3 + c
            if c + 1 < 3:
                edges.append((v, v + 1, 1.0))
            if r + 1 < 3:
                edges.append((v, v + 3, 1.0))
    g = WeightedGraph(9, edges)
    td = TreeDecomposition(
        [list(range(k, k + 4)) for k in range(6)], [(i, i + 1) for i in range(5)]
    )
    spd = treewidth_bag_spd(g, td)
    spd.validate()
    sp = spd_spanner(spd, eps=0.25)
    metric = shortest_path_metric(g)
    check_all_pairs(sp, metric, bound=1.25)


def test_spd_validation_rejects_non_shortest_path():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    bad = SpdDecomposition(
        graph=g, root=SpdNode(component=[0, 1, 2], path=[0, 1, 2])
    )
    with pytest.raises(ValueError, match="shortest"):
        bad.validate()


# --- Thorup-Zwick ---------------------------------------------------------


def test_tz_k1_complete_exact():
    metric = random_metric(12, 11)
    sp = tz_spanner(metric, k=1, seed=0)
    assert sp.num_edges() == 12 * 11 // 2
    mat = metric.matrix()
    for u in range(12):
        for v in range(u + 1, 12):
            path, w = sp.query(u, v)
            assert w == pytest.approx(mat[u, v])
            assert sp.last_iters == 0


def test_tz_uniform_metric():
    n = 16
    metric = MatrixMetric(np.ones((n, n)) - np.eye(n))
    sp = tz_spanner(metric, k=2, seed=1)
    for u in range(n):
        for v in range(u + 1, n):
            path, w = sp.query(u, v)
            assert w <= 3.0
            assert sp.last_iters <= 2


@pytest.mark.parametrize("k", [2, 3])
def test_tz_random_metric(k):
    n = 100
    metric = random_metric(n, 12 + k)
    sp = tz_spanner(metric, k=k, seed=2)
    mat = metric.matrix()
    assert sp.total_bunch <= 4 * k * n ** (1 + 1 / k)
    for u in range(n):
        for v in range(u + 1, n):
            path, w = sp.query(u, v)
            sp.check_path(path)
            assert len(path) - 1 <= 2
            assert sp.last_iters <= k
            assert w <= (2 * k - 1) * mat[u, v] * (1 + 1e-9)


def test_tz_bunch_definition():
    n = 64
    k = 3
    metric = random_metric(n, 15)
    sp = tz_spanner(metric, k=k, seed=3)
    mat = metric.matrix()
    levels = sp.oracle.levels
    for v in range(n):
        expected = {}
        for i in range(k):
            ai = levels[i]
            anext = levels[i + 1]
            d_next = min((mat[v, w] for w in anext), default=math.inf)
            for w in ai:
                if mat[v, w] < d_next:
                    expected[w] = mat[v, w]
        assert sp.oracle.bunches[v] == pytest.approx(expected)


# --- sparse cover ---------------------------------------------------------


def test_sparse_cover_two_points():
    metric = LpMetric(PointSet([[0.0], [1.0]]), 1)
    sp = tz_spanner(metric, k=2, seed=4)
    cover = sparse_cover_spanner(metric, k=2, eps=0.25, estimator=lambda u, v: sp.query(u, v)[1])
    path, w = cover.query(0, 1)
    assert w == pytest.approx(1.0)


def test_sparse_cover_uniform():
    n = 20
    metric = MatrixMetric(np.ones((n, n)) - np.eye(n))
    tz = tz_spanner(metric, k=2, seed=5)
    cover = sparse_cover_spanner(metric, k=2, eps=0.25, estimator=lambda u, v: tz.query(u, v)[1])
    bound = 1.25 * 6
    for u in range(n):
        for v in range(u + 1, n):
            path, w = cover.query(u, v)
            assert w <= bound


def test_sparse_cover_random_metric():
    n = 80
    k = 2
    eps = 0.25
    metric = random_metric(n, 16)
    tzsp = tz_spanner(metric, k=k, seed=6)
    cover = sparse_cover_spanner(metric, k=k, eps=eps, estimator=lambda u, v: tzsp.query(u, v)[1])
    assert verify_padding(cover)
    mat = metric.matrix()
    scan_cap = math.ceil(math.log(2 * k) / math.log(1 + eps)) + 3
    for u in range(n):
        for v in range(u + 1, n):
            path, w = cover.query(u, v)
            cover.check_path(path)
            assert w <= (1 + eps) * (4 * k - 2) * mat[u, v] * (1 + 1e-9)
            assert cover.last_scanned <= scan_cap


# --- fault tolerance ------------------------------------------------------


def test_ft_f0_matches_plain_rooted():
    g = random_tree(30, 17)
    metric = shortest_path_metric(g)
    fam = build_rooted_lso_tree(g)
    ft = ft_spanner_from_family(fam, metric, f=0)
    plain = pr_spanner_from_rooted(fam, metric)
    for u in range(30):
        for v in range(u + 1, 30):
            _, wf = ft.query(u, v, ())
            _, wp = plain.query(u, v)
            # f=0 rooted FT uses the first point of each ordering = its root
            assert wf == pytest.approx(wp)


def assert_ft0_equals_pr(fam, metric, pr):
    """At f = 0 the FT spanner is the PR spanner: edges, answers, weights."""
    ft = ft_spanner_from_family(fam, metric, 0)
    assert ft.edges == pr.edges
    n = metric.n
    for u in range(n):
        for v in range(n):
            (fp, fw), (pp, pw) = ft.query(u, v), pr.query(u, v)
            assert fp == pp and float(fw).hex() == float(pw).hex()
    alive, best = ft.residual_all_pairs_weights(())
    assert alive.tolist() == list(range(n))
    assert np.array_equal(best, pr.all_pairs_weights()[np.triu_indices(n, k=1)])


@pytest.mark.parametrize("n", [2, 3, 17, 40, 96])
def test_ft_f0_equals_pr_triangle(n):
    ps = PointSet(np.random.default_rng(n).uniform(size=(n, 2)))
    metric = LpMetric(ps)
    fam = build_triangle_lso_verified(ps, p=2, t=4.0, delta=0.5, seed=n)
    assert_ft0_equals_pr(fam, metric, pr_spanner_from_triangle(fam, metric))


def test_ft_f0_equals_pr_classic():
    ps = PointSet(np.random.default_rng(30).uniform(size=(30, 2)))
    metric = LpMetric(ps)
    fam = build_classic_grid_lso(ps, eps=0.25, seed=31).family
    assert_ft0_equals_pr(fam, metric, pr_spanner_from_classic(fam, metric))


@pytest.mark.parametrize("n", [2, 5, 60, 200])
def test_ft_f0_equals_pr_rooted(n):
    g = random_tree(n, n)
    metric = shortest_path_metric(g)
    fam = build_rooted_lso_tree(g)
    assert_ft0_equals_pr(fam, metric, pr_spanner_from_rooted(fam, metric))


# --- position-table queries against the per-ordering scalar loops ---------


def reference_query(sp, hop, fam, u, v, faults=()):
    """The per-ordering loop: midpoint of (pos u, pos v) in each ordering,
    strict < keeping the first lightest path."""
    if u == v:
        return [u], 0.0
    best = None
    for o in fam.orderings:
        pu, pv = o.perm.index(u) + 1, o.perm.index(v) + 1
        if faults:
            l = hop.query(min(pu, pv), max(pu, pv), {o.perm.index(x) + 1 for x in faults})
        else:
            l = hop.query(min(pu, pv), max(pu, pv))
        z = o.perm[l - 1]
        path = [u] + ([z] if z not in (u, v) else []) + [v]
        w = sum(sp.mat[a, b] for a, b in zip(path, path[1:]))
        if best is None or w < best[1]:
            best = (path, w)
    return best


def same_answer(got, want):
    return got[0] == want[0] and float(got[1]).hex() == float(want[1]).hex()


def tie_family():
    """Four collinear points, two orderings whose midpoints for (0, 3)
    differ (1 and 2) at the same weight: only the first-min answer agrees
    with the loop."""
    ps = PointSet([[0.0], [1.0], [2.0], [3.0]])
    orders = [Ordering([0, 1, 2, 3]), Ordering([0, 2, 1, 3])]
    return LpMetric(ps), OrderingFamily("triangle", orders, rho=1.0), pr_spanner_from_triangle


def triangle_case(n):
    ps = PointSet(np.random.default_rng(n).uniform(size=(n, 2)))
    fam = build_triangle_lso_verified(ps, p=2, t=4.0, delta=0.5, seed=n)
    return LpMetric(ps), fam, pr_spanner_from_triangle


def grid_case():
    ps = PointSet(np.random.default_rng(30).uniform(size=(30, 2)))
    return LpMetric(ps), build_classic_grid_lso(ps, eps=0.25, seed=31).family, pr_spanner_from_classic


def cover_case():
    metric = LpMetric(PointSet(np.random.default_rng(18).uniform(size=(60, 2))))
    fam = cover_preorder_to_triangle_lso(build_ultrametric_cover(metric, t=8, seed=19))
    return metric, fam, pr_spanner_from_triangle


ORDERING_CASES = {
    **{f"triangle-{n}": (lambda n=n: triangle_case(n)) for n in (1, 2, 3, 17, 40, 96)},
    "grid": grid_case,
    "cover": cover_case,
    "ties": tie_family,
}


@pytest.mark.parametrize("case", sorted(ORDERING_CASES))
def test_pr_query_matches_per_ordering_loop(case):
    metric, fam, make = ORDERING_CASES[case]()
    sp = make(fam, metric)
    n = metric.n
    for u in range(n):
        for v in range(n):
            assert same_answer(sp.query(u, v), reference_query(sp, sp.hop, fam, u, v)), (u, v)


def test_tie_goes_to_first_ordering():
    metric, fam, make = tie_family()
    assert make(fam, metric).query(0, 3) == ([0, 1, 3], 3.0)
    assert ft_spanner_from_family(fam, metric, 0).query(0, 3) == ([0, 1, 3], 3.0)


def ft_fault_sets(ft, fam, n, rng):
    """Fault sets at the budget (random, and on the lowest block positions
    of the top-level midpoint of some ordering), below it, and empty."""
    f = min(ft.f, max(0, n - 2))
    half = ft.f // 2
    perm = fam.orderings[int(rng.integers(len(fam.orderings)))].perm
    mid = ft.ft.n_padded // 2
    top = [perm[pos - 1] for pos in range(mid - half, mid + half) if 1 <= pos <= n][:f]
    return [
        set(int(x) for x in rng.choice(n, size=f, replace=False)),
        set(top),
        set(int(x) for x in rng.choice(n, size=max(0, f - 1), replace=False)),
        set(),
    ]


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(ORDERING_CASES))
def test_ft_query_matches_per_ordering_loop(case, f):
    metric, fam, _ = ORDERING_CASES[case]()
    ft = ft_spanner_from_family(fam, metric, f)
    n = metric.n
    rng = np.random.default_rng(n + f)
    for faults in ft_fault_sets(ft, fam, n, rng):
        alive = [p for p in range(n) if p not in faults]
        pairs = [(u, v) for u in alive for v in alive]
        if len(pairs) > 400:
            pairs = [pairs[i] for i in rng.choice(len(pairs), size=400, replace=False)]
        for u, v in pairs:
            want = reference_query(ft, ft.ft, fam, u, v, faults)
            assert same_answer(ft.query(u, v, faults), want), (u, v, faults)
        kept, best = ft.residual_all_pairs_weights(faults)
        iu, iv = np.triu_indices(kept.size, k=1)
        for t in rng.choice(iu.size, size=min(iu.size, 200), replace=False):
            u, v = int(kept[iu[t]]), int(kept[iv[t]])
            assert best[t] == reference_query(ft, ft.ft, fam, u, v, faults)[1]


def reference_residual(ft, faults):
    """The per-ordering streaming loop: every ordering's faulted midpoints
    for every surviving pair, min of the 2-hop weights.  Also counts the
    (ordering, surviving pair) rows whose fault-free midpoint is in F."""
    F = set(faults)
    alive = np.asarray([p for p in range(ft.n) if p not in F], dtype=np.int64)
    iu, iv = np.triu_indices(alive.size, k=1)
    a, b = alive[iu], alive[iv]
    best = np.full(a.shape, np.inf)
    hits = 0
    for perm, pos in zip(ft.perms, ft.table):
        mask = np.zeros(ft.ft.n_padded + 2, dtype=bool)
        pu, pv = pos[a], pos[b]
        lo, hi = np.minimum(pu, pv), np.maximum(pu, pv)
        hits += int(np.isin(perm[ft.ft.query_batch(lo, hi, mask) - 1], list(F)).sum())
        mask[pos[list(F)]] = True
        z = perm[ft.ft.query_batch(lo, hi, mask) - 1]
        best = np.minimum(best, ft.mat[a, z] + ft.mat[z, b])
    return alive, best, hits


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(ORDERING_CASES))
def test_ft_residual_matches_per_ordering_loop(case, f, monkeypatch):
    """Several calls on one spanner (the candidate table is built once and
    reused), recomputing hit rows in one chunk and in chunks of 5:
    bitwise-equal weights and the hit-row count."""
    metric, fam, _ = ORDERING_CASES[case]()
    ft = ft_spanner_from_family(fam, metric, f)
    n = metric.n
    rng = np.random.default_rng(10 * n + f)
    table = None
    for chunk in (spanners.RECOMPUTE_ROWS, 5):
        monkeypatch.setattr(spanners, "RECOMPUTE_ROWS", chunk)
        for faults in ft_fault_sets(ft, fam, n, rng):
            alive, best = ft.residual_all_pairs_weights(faults)
            want_alive, want_best, hits = reference_residual(ft, faults)
            assert alive.tolist() == want_alive.tolist()
            assert best.tobytes() == want_best.tobytes(), faults
            assert ft.last_recomputed == hits
            if table is None:
                table = ft.candidates
            assert ft.candidates is table
    ft.residual_all_pairs_weights(())
    assert ft.last_recomputed == 0


def test_ft_residual_table_cap(monkeypatch):
    metric, fam, _ = triangle_case(17)
    ft = ft_spanner_from_family(fam, metric, 2)
    m = len(fam.orderings)
    need = 4 * m * 136 + 16 * 136
    monkeypatch.setattr(spanners, "TABLE_CAP_BYTES", need - 1)
    with pytest.raises(ValueError, match=f"n=17, tau={m} needs {need} bytes"):
        ft.residual_all_pairs_weights({2})
    assert ft.candidates is None
    monkeypatch.setattr(spanners, "TABLE_CAP_BYTES", need)
    assert ft.residual_all_pairs_weights({2})[1].tobytes() == reference_residual(ft, {2})[1].tobytes()


def rooted_reference_query(mat, fam, f, u, v, faults):
    """Per ordering holding both u and v, z = the first of perm[:f+1] not in
    F; strict < keeps the first lightest path.  None when no ordering
    serves the pair."""
    if u == v:
        return [u], 0.0
    best = None
    for o in fam.orderings:
        if u not in o.perm or v not in o.perm:
            continue
        z = next((p for p in o.perm[: f + 1] if p not in faults), None)
        if z is None:
            continue
        path = [u] + ([z] if z not in (u, v) else []) + [v]
        w = sum(mat[a, b] for a, b in zip(path, path[1:]))
        if best is None or w < best[1]:
            best = (path, w)
    return best


def rooted_reference_residual(mat, fam, f, faults):
    """orderings.via_root_weights with each ordering's first surviving head
    in place of its root, read at the surviving pairs in np.triu_indices
    order."""
    n = mat.shape[0]
    best = np.full((n, n), np.inf)
    for o in fam.orderings:
        z = next((p for p in o.perm[: f + 1] if p not in faults), None)
        if z is None:
            continue
        members = np.asarray(o.perm, dtype=np.int64)
        via = mat[members[:, None], z] + mat[z, members[None, :]]
        best[np.ix_(members, members)] = np.minimum(best[np.ix_(members, members)], via)
    alive = np.asarray([p for p in range(n) if p not in faults], dtype=np.int64)
    iu, iv = np.triu_indices(alive.size, k=1)
    return alive, best[alive[iu], alive[iv]]


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("n", [5, 60, 200])
def test_ft_rooted_matches_per_ordering_reference(n, f):
    """Rooted FT answers and residual bytes under fault sets at and below
    the budget, one of them the roots of the first orderings."""
    g = random_tree(n, 40 + n)
    metric = shortest_path_metric(g)
    mat = metric.matrix()
    fam = build_rooted_lso_tree(g)
    ft = ft_spanner_from_family(fam, metric, f)
    rng = np.random.default_rng(n + f)
    roots = list(dict.fromkeys(o.root for o in fam.orderings))[:f]
    fault_sets = [
        set(roots),
        set(rng.choice(n, size=f, replace=False).tolist()),
        set(rng.choice(n, size=f - 1, replace=False).tolist()),
        set(),
    ]
    for faults in fault_sets:
        alive = [p for p in range(n) if p not in faults]
        pairs = [(u, v) for u in alive for v in alive]
        if len(pairs) > 600:
            pairs = [pairs[i] for i in rng.choice(len(pairs), size=600, replace=False)]
        for u, v in pairs:
            want = rooted_reference_query(mat, fam, f, u, v, faults)
            if want is None:
                with pytest.raises(LookupError):
                    ft.query(u, v, faults)
            else:
                assert same_answer(ft.query(u, v, faults), want), (u, v, faults)
        got_alive, got = ft.residual_all_pairs_weights(faults)
        want_alive, want = rooted_reference_residual(mat, fam, f, faults)
        assert got_alive.tolist() == want_alive.tolist()
        assert got.tobytes() == want.tobytes(), faults


def test_query_errors_leave_later_answers_unchanged(monkeypatch):
    """After each rejected query or residual call, including one whose batch
    kernel raises, the same queries give the same answers as before."""
    metric, fam, make = triangle_case(17)
    sp = make(fam, metric)
    ft = ft_spanner_from_family(fam, metric, 2)
    probes = [(0, 5, ()), (3, 11, {2, 7}), (4, 9, {1})]
    before = [ft.query(u, v, F) for u, v, F in probes]
    residual = [b.tobytes() for b in ft.residual_all_pairs_weights({2, 7})]

    def unchanged():
        assert [ft.query(u, v, F) for u, v, F in probes] == before
        assert [b.tobytes() for b in ft.residual_all_pairs_weights({2, 7})] == residual

    for u, v in ((0, 17), (-1, 3)):
        with pytest.raises(ValueError, match="out of range"):
            sp.query(u, v)
        with pytest.raises(ValueError, match="out of range"):
            ft.query(u, v)
        unchanged()
    with pytest.raises(ValueError, match="exceeds budget"):
        ft.query(0, 1, {2, 3, 4})
    unchanged()
    with pytest.raises(ValueError, match="exceeds budget 2"):
        ft.residual_all_pairs_weights({2, 3, 4, 5})
    unchanged()
    g = random_tree(12, 3)
    rooted = ft_spanner_from_family(build_rooted_lso_tree(g), shortest_path_metric(g), 1)
    with pytest.raises(ValueError, match="exceeds budget 1"):
        rooted.residual_all_pairs_weights({0, 1})
    with pytest.raises(ValueError, match="endpoints must survive"):
        ft.query(0, 1, {1})
    unchanged()
    for faults in ({17}, {-2}):
        with pytest.raises(ValueError, match="out of range"):
            ft.query(0, 1, faults)
        with pytest.raises(ValueError, match="out of range"):
            ft.residual_all_pairs_weights(faults)
        unchanged()

    def broken(*args, **kwargs):
        raise RuntimeError("query_batch failed")

    with monkeypatch.context() as patch:
        patch.setattr(ft.ft, "query_batch", broken)
        for call in (lambda: ft.query(0, 1, {2, 3}), lambda: ft.residual_all_pairs_weights({2, 3})):
            with pytest.raises(RuntimeError):
                call()
    unchanged()


def test_ids_are_checked_before_every_shortcut():
    """An out-of-range point id is rejected even where a shortcut (u == v,
    an empty membership list, a rooted branch) would answer without it."""
    metric, fam, make = triangle_case(20)
    g = random_tree(20, 4)
    rooted_fam, tree_metric = build_rooted_lso_tree(g), shortest_path_metric(g)
    ordering = [make(fam, metric), ft_spanner_from_family(fam, metric, 2)]
    rooted = [pr_spanner_from_rooted(rooted_fam, tree_metric),
              ft_spanner_from_family(rooted_fam, tree_metric, 1)]
    for sp in ordering + rooted:
        for u, v in ((500, 500), (-1, -1), (3, 500), (500, 3)):
            with pytest.raises(ValueError, match="out of range"):
                sp.query(u, v)
    for ft in (ordering[1], rooted[1]):
        with pytest.raises(ValueError, match="out of range"):
            ft.query(3, 3, (99,))
        with pytest.raises(ValueError, match="out of range"):
            ft.residual_all_pairs_weights((77,))
        assert ft.query(3, 3) == ([3], 0.0)


def test_ft_rooted_star_hub_fault():
    g = WeightedGraph(6, [(0, i, 1.0) for i in range(1, 6)])
    metric = shortest_path_metric(g)
    perm = [0] + list(range(1, 6))
    fam = OrderingFamily("rooted", [Ordering(perm, root=0)], rho=1.0)
    ft = ft_spanner_from_family(fam, metric, f=1)
    path, w = ft.query(1, 2, {0})
    assert 0 not in path
    assert w <= 2 * 1.0 * metric.dist(1, 2) * (1 + 1e-9)


def test_ft_triangle_family_random_attacks():
    rng = np.random.default_rng(18)
    ps = PointSet(rng.uniform(size=(60, 2)))
    metric = LpMetric(ps)
    cover = build_ultrametric_cover(metric, t=8, seed=19)
    fam = cover_preorder_to_triangle_lso(cover)
    f = 2
    ft = ft_spanner_from_family(fam, metric, f)
    mat = metric.matrix()
    bound = 2 * fam.rho
    for attack in range(30):
        faults = set(rng.choice(60, size=f, replace=False).tolist())
        alive, weights = ft.residual_all_pairs_weights(faults)
        iu, iv = np.triu_indices(alive.size, k=1)
        d = mat[alive[iu], alive[iv]]
        assert np.all(weights <= bound * d * (1 + 1e-9))
        # spot-check scalar query and path membership
        for _ in range(5):
            x, y = rng.choice([p for p in range(60) if p not in faults], size=2, replace=False)
            if x == y:
                continue
            path, w = ft.query(int(min(x, y)), int(max(x, y)), faults)
            ft.check_path(path)
            assert not (set(path) & faults)
            assert w <= bound * mat[x, y] * (1 + 1e-9)


def test_ft_edge_budget():
    rng = np.random.default_rng(20)
    ps = PointSet(rng.uniform(size=(40, 2)))
    metric = LpMetric(ps)
    fam = build_triangle_lso_verified(ps, p=2, t=4.0, delta=0.5, seed=21)
    ft = ft_spanner_from_family(fam, metric, f=2)
    per_ordering = ft.ft.num_edges()
    assert ft.num_edges() <= per_ordering * len(fam.orderings)


# --- spanner oracles ------------------------------------------------------


def test_oracle_classic_single_terminal():
    ps, fam = line_family(np.arange(10.0), rho=0.2)
    oracle = spanner_oracle_classic(fam, LpMetric(ps, 1))
    assert oracle([3], L=1.0) == []
    assert oracle.weak_sparsity == 0.0


def test_oracle_classic_line_weak_sparsity():
    vals = np.arange(32.0)
    ps, fam = line_family(vals, rho=0.2)
    oracle = spanner_oracle_classic(fam, LpMetric(ps, 1))
    rng = np.random.default_rng(22)
    for _ in range(50):
        m = int(rng.integers(2, 20))
        terminals = sorted(rng.choice(32, size=m, replace=False).tolist())
        L = float(rng.uniform(0.5, 40.0))
        edges = oracle(terminals, L)
        assert sum(w for _, _, w in edges) <= (m - 1) * 2 * L + 1e-9
    assert oracle.weak_sparsity <= 2.0


def test_oracle_classic_stretch():
    rng = np.random.default_rng(23)
    ps = PointSet(rng.uniform(size=(60, 2)))
    grid = build_classic_grid_lso(ps, eps=0.2, seed=24)
    fam = grid.family
    metric = LpMetric(ps)
    oracle = spanner_oracle_classic(fam, metric)
    mat = metric.matrix()
    for trial in range(20):
        terminals = sorted(rng.choice(60, size=int(rng.integers(2, 30)), replace=False).tolist())
        L = float(rng.uniform(0.05, 0.7))
        edges = oracle(terminals, L)
        dists = shortest_paths_on_edges(60, edges, terminals)
        for i, u in enumerate(terminals):
            for v in terminals[i + 1 :]:
                if L <= mat[u, v] < 2 * L:
                    assert dists[u][v] <= (1 + 8 * 0.2) * mat[u, v] * (1 + 1e-9)
    assert oracle.weak_sparsity <= 2 * len(fam.orderings)


def test_oracle_classic_requires_small_rho():
    ps, fam = line_family(np.arange(5.0), rho=0.5)
    with pytest.raises(ValueError, match="1/4"):
        spanner_oracle_classic(fam, LpMetric(ps, 1))


@pytest.mark.parametrize("hops,stretch_mult", [(2, 2), (3, 3), (4, 4)])
def test_oracle_triangle_variants(hops, stretch_mult):
    rng = np.random.default_rng(25 + hops)
    ps = PointSet(rng.uniform(size=(50, 2)))
    metric = LpMetric(ps)
    cover = build_ultrametric_cover(metric, t=4, seed=26)
    fam = cover_preorder_to_triangle_lso(cover)
    oracle = spanner_oracle_triangle(fam, metric, hops=hops)
    mat = metric.matrix()
    rho = fam.rho
    for trial in range(10):
        terminals = sorted(rng.choice(50, size=int(rng.integers(2, 25)), replace=False).tolist())
        L = float(rng.uniform(0.05, 0.7))
        edges = oracle(terminals, L)
        assert all(w <= 2 * rho * L * (1 + 1e-12) for _, _, w in edges)
        dists = shortest_paths_on_edges(50, edges, terminals)
        for i, u in enumerate(terminals):
            for v in terminals[i + 1 :]:
                if L <= mat[u, v] < 2 * L:
                    assert dists[u][v] <= stretch_mult * rho * mat[u, v] * (1 + 1e-9)


# --- the family index -----------------------------------------------------


def mismatched_families():
    """(family, metric, message) for families that do not match their metric:
    covering orderings over too few points, and a rooted ordering holding a
    point id the metric lacks."""
    rng = np.random.default_rng(40)
    points = LpMetric(PointSet(rng.uniform(size=(96, 2))))
    short = "ordering 0 covers 48 of 96 points"
    for kind, rho in (("triangle", 2.0), ("classic", 0.2)):
        fam = OrderingFamily(kind, [Ordering(rng.permutation(48)) for _ in range(2)], rho=rho)
        yield fam, points, short
    ragged = OrderingFamily("triangle", [Ordering(rng.permutation(40)) for _ in range(3)], rho=2.0)
    yield ragged, LpMetric(PointSet(rng.uniform(size=(48, 2)))), "ordering 0 covers 40 of 48 points"
    path = shortest_path_metric(WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    rooted = OrderingFamily("rooted", [Ordering([0, 1, 2], root=0), Ordering([5, 1], root=5)], rho=1.0)
    yield rooted, path, r"ordering 1 holds point id 5, outside 0\.\.2"


def family_consumers(fam):
    """Every structure built on a family of this kind, as metric -> structure."""
    if fam.kind == "rooted":
        builders = [pr_spanner_from_rooted, assign_rooted_labels]
    elif fam.kind == "triangle":
        builders = [pr_spanner_from_triangle, assign_triangle_labels, spanner_oracle_triangle]
    else:
        builders = [pr_spanner_from_classic, spanner_oracle_classic]
    return [lambda metric: ft_spanner_from_family(fam, metric, 1)] + [
        lambda metric, build=build: build(fam, metric) for build in builders
    ]


def test_family_consumers_reject_a_family_that_does_not_match_the_metric():
    """A family over other points than the metric's is refused with the
    verifiers' message; unchecked, a 48-point family on 96 points read
    unset position-table entries, and a query could return garbage."""
    for fam, metric, message in mismatched_families():
        for build in family_consumers(fam):
            with pytest.raises(ValueError, match=message):
                build(metric)


def test_consumers_share_the_family_index(monkeypatch):
    """The spanners, labels and verifiers built on one family all read its
    one index; none derives positions or membership itself."""
    rng = np.random.default_rng(41)
    ps = PointSet(rng.uniform(size=(40, 2)))
    metric = LpMetric(ps)
    tri = build_triangle_lso_verified(ps, 2, 4.0, 0.5, seed=42)
    perms, table = tri.perms, tri.table
    sp, ft = pr_spanner_from_triangle(tri, metric), ft_spanner_from_family(tri, metric, 2)
    assert sp.perms is perms and ft.perms is perms
    assert sp.table is table and ft.table is table
    labels, _ = assign_triangle_labels(tri, metric)
    assert all(lab.positions.base is table for lab in labels.values())

    seen = []

    def spy(name):
        real = getattr(orderings, name)

        def wrapper(rows, *args):
            seen.append(rows.base)
            return real(rows, *args)

        monkeypatch.setattr(orderings, name, wrapper)

    spy("window_diameter_table")
    assert orderings.verify_triangle(tri, metric).passed
    assert seen and all(base is perms for base in seen)
    sub = PointSet(ps.points[:16])
    grid = build_classic_grid_lso(sub, 0.2, seed=43)
    seen.clear()
    real_ratios = orderings._classic_ratios

    def ratios_spy(padded, fam_perms, fam_table, *args):
        seen.append((fam_perms, fam_table))
        return real_ratios(padded, fam_perms, fam_table, *args)

    monkeypatch.setattr(orderings, "_classic_ratios", ratios_spy)
    assert orderings.verify_classic(grid.family, LpMetric(sub)).passed
    assert seen and all(p is grid.family.perms and t is grid.family.table for p, t in seen)

    g = random_tree(30, 44)
    tree, tree_metric = build_rooted_lso_tree(g), shortest_path_metric(g)
    rooted_sp = pr_spanner_from_rooted(tree, tree_metric)
    rooted_ft = ft_spanner_from_family(tree, tree_metric, 1)
    assert rooted_sp.membership is tree.membership and rooted_ft.membership is tree.membership
