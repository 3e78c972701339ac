import math
from itertools import chain

import numpy as np
import pytest

from lsorder.doubling import build_ultrametric_cover, cover_preorder_to_triangle_lso
from lsorder import orderings
from lsorder.euclidean import build_classic_grid_lso, build_triangle_lso
from lsorder.metrics import LpMetric, MatrixMetric, PointSet, WeightedGraph, shortest_path_metric
from lsorder.orderings import (
    CLASSIC,
    VERIFY_TOL,
    Ordering,
    OrderingFamily,
    TreeDecomposition,
    VerificationReport,
    _report_from_best,
    build_rooted_lso_tree,
    build_rooted_lso_treewidth,
    verify_classic,
    verify_family,
    verify_rooted,
    verify_triangle,
    window_diameter_table,
)


def random_tree(n, seed, max_w=4):
    rng = np.random.default_rng(seed)
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.integers(1, max_w + 1))))
    return WeightedGraph(n, edges)


def line_metric(values):
    return LpMetric(PointSet([[v] for v in values]), 1)


def test_classic_two_points_pass_any_rho():
    m = line_metric([0.0, 5.0])
    fam = OrderingFamily("classic", [Ordering([0, 1])], rho=0.0)
    rep = verify_classic(fam, m)
    assert rep.passed
    assert rep.max_observed_stretch == 0.0


def test_classic_collinear_hand_enumeration():
    # values {0,1,2,10}, sorted ordering, rho=0.3: the single window of pair
    # (0,2) is {1} at distance 1 > 0.6 from both endpoints, best split 0.5
    m = line_metric([0.0, 1.0, 2.0, 10.0])
    fam = OrderingFamily("classic", [Ordering([0, 1, 2, 3])], rho=0.3)
    rep = verify_classic(fam, m)
    assert not rep.passed
    bad = {(x, y): r for x, y, r in rep.violations}
    assert (0, 2) in bad
    assert bad[(0, 2)] == pytest.approx(0.5)
    # pair (0, 10): window {1,2} fits entirely in B(0, 3)
    assert (0, 3) not in bad


def test_classic_identity_on_sorted_reals_rho1():
    rng = np.random.default_rng(2)
    vals = np.sort(rng.uniform(0, 10, size=30))
    m = line_metric(vals)
    fam = OrderingFamily("classic", [Ordering(range(30))], rho=1.0)
    rep = verify_classic(fam, m)
    assert rep.passed


def test_classic_sorted_reals_exact_half():
    # on the line the sorted order splits every window at the midpoint
    vals = [0.0, 0.25, 0.5, 0.75, 1.0]
    m = line_metric(vals)
    fam = OrderingFamily("classic", [Ordering(range(5))], rho=0.5)
    rep = verify_classic(fam, m)
    assert rep.passed
    assert rep.max_observed_stretch <= 0.5 + 1e-12


def test_classic_requires_covering():
    m = line_metric([0.0, 1.0, 2.0])
    fam = OrderingFamily("classic", [Ordering([0, 1])], rho=1.0)
    with pytest.raises(ValueError, match="cover"):
        verify_classic(fam, m)


def test_classic_hint_does_not_change_outcome():
    rng = np.random.default_rng(3)
    vals = rng.uniform(size=20)
    m = line_metric(vals)
    perm = list(np.argsort(vals))
    fam = OrderingFamily("classic", [Ordering(np.random.permutation(20)), Ordering(perm)], rho=1.0)
    rep_plain = verify_classic(fam, m)
    rep_hint = verify_classic(fam, m, hint=lambda x, y: 1)
    assert rep_plain.passed == rep_hint.passed


def classic_pair_ratio(window, dx_row, dy_row):
    """Smallest rho' such that the window splits into a prefix within
    rho'*d of x and a suffix within rho'*d of y (distances given in units
    of d(x,y))."""
    if window.size == 0:
        return 0.0
    a = dx_row[window]
    b = dy_row[window]
    pref = np.concatenate(([0.0], np.maximum.accumulate(a)))
    suf = np.concatenate((np.maximum.accumulate(b[::-1])[::-1], [0.0]))
    return float(np.min(np.maximum(pref, suf)))


def verify_classic_loop(fam, metric, hint=None):
    """Reference: a Python loop over the pairs, each scanning its hinted
    ordering (hint(x, y) per pair; None or negative: none) and then the rest
    in index order until one certifies."""
    n = metric.n
    mat = metric.matrix()
    bound = fam.rho * (1 + VERIFY_TOL)
    perms, table = fam.perms, fam.table
    m = len(perms)
    violations = []
    max_stretch = 0.0
    pairs = 0
    for x in range(n):
        for y in range(x + 1, n):
            pairs += 1
            d = mat[x, y]
            best = math.inf
            order_ids = range(m)
            h = None if hint is None else hint(x, y)
            if h is not None and h >= 0:
                order_ids = chain((h,), (k for k in range(m) if k != h))
            if d > 0.0:
                dx_row = mat[x] / d
                dy_row = mat[y] / d
            for k in order_ids:
                px, py = table[k, x], table[k, y]
                lo, hi = (px, py) if px < py else (py, px)
                window = perms[k, lo : hi - 1]
                if d == 0.0:
                    ratio = 0.0 if np.all(mat[x, window] == 0.0) else math.inf
                else:
                    first, second = (dx_row, dy_row) if px < py else (dy_row, dx_row)
                    ratio = min(
                        classic_pair_ratio(window, first, second),
                        classic_pair_ratio(window, second, first),
                    )
                best = min(best, ratio)
                if best <= bound:
                    break
            max_stretch = max(max_stretch, min(best, 1e300))
            if best > bound:
                violations.append((x, y, best))
    return VerificationReport(CLASSIC, fam.rho, pairs, violations, max_stretch)


def same_report(got, ref):
    assert got.pairs_checked == ref.pairs_checked
    assert got.violations == ref.violations
    assert all(type(v) is int for x, y, _ in got.violations for v in (x, y))
    assert all(type(r) is float for _, _, r in got.violations)
    assert type(got.max_observed_stretch) is float
    assert got.max_observed_stretch == ref.max_observed_stretch


@pytest.mark.parametrize("chunk_cells", [orderings.CLASSIC_CHUNK_CELLS, 64])
def test_classic_verify_matches_loop_reference(monkeypatch, chunk_cells):
    monkeypatch.setattr(orderings, "CLASSIC_CHUNK_CELLS", chunk_cells)  # 64: many steps
    rng = np.random.default_rng(6)
    checked = failed = 0
    for trial in range(24):
        n = int(rng.integers(2, 26))
        pts = rng.uniform(size=(n, 2))
        if trial % 3 == 0:
            pts[rng.integers(0, n, size=n // 3)] = pts[0]  # duplicate points
        metric = LpMetric(PointSet(pts))
        m = int(rng.choice([1, 2, 5]))
        perms = [rng.permutation(n) for _ in range(m)]
        if trial % 4 == 1:
            perms[-1] = np.lexsort(pts.T[::-1])  # sorted by x: certifies more pairs
        fam = OrderingFamily("classic", [Ordering(p) for p in perms], rho=float(rng.choice([0.25, 0.5, 1.0])))

        def per_pair(x, y, m=m):
            return (7 * x + 3 * y) % (m + 1) - 1  # -1 .. m-1, scalar or array

        for hint in (None, lambda x, y: None, lambda x, y: 0, lambda x, y: m - 1, lambda x, y: -1, per_pair):
            ref = verify_classic_loop(fam, metric, hint)
            same_report(verify_classic(fam, metric, hint=hint), ref)
            checked += 1
            failed += not ref.passed
    assert failed and failed < checked  # both outcomes occur


def test_classic_verify_matches_loop_reference_on_grid():
    ps = PointSet(np.random.default_rng(8).uniform(size=(30, 2)))
    grid = build_classic_grid_lso(ps, 0.25, seed=9)
    metric = LpMetric(ps)
    ref = verify_classic_loop(grid.family, metric, grid.satisfying_ordering)
    assert ref.passed
    same_report(verify_classic(grid.family, metric, hint=grid.satisfying_ordering), ref)
    same_report(verify_classic(grid.family, metric), verify_classic_loop(grid.family, metric))


def test_classic_hint_out_of_range_names_index():
    m = line_metric([0.0, 1.0, 3.0])
    fam = OrderingFamily("classic", [Ordering([0, 1, 2]), Ordering([2, 1, 0])], rho=0.5)
    with pytest.raises(ValueError, match="ordering 5.*tau = 2"):
        verify_classic(fam, m, hint=lambda x, y: 5)
    with pytest.raises(ValueError, match="ordering 2.*tau = 2"):
        verify_classic(fam, m, hint=lambda x, y: np.where(x == 0, 2, 0))
    assert verify_classic(fam, m, hint=lambda x, y: -3).passed


def window_diameter_naive(perm, mat, i, j):
    pts = perm[i : j + 1]
    return max(mat[a, b] for a in pts for b in pts)


def test_window_diameter_dp_equals_naive():
    rng = np.random.default_rng(4)
    for n in (5, 17, 40):
        pts = PointSet(rng.uniform(size=(n, 2)))
        mat = LpMetric(pts).matrix()
        perm = list(rng.permutation(n))
        D = window_diameter_table(perm, mat)
        for i in range(n):
            for j in range(i, n):
                assert D[i, j] == window_diameter_naive(perm, mat, i, j)


def window_diameter_reference(perm, mat):
    """The span recurrence D(i,j) = max(D(i+1,j), D(i,j-1), d(i,j)), one
    vectorized step per span."""
    m = len(perm)
    sub = mat[np.ix_(perm, perm)]
    D = np.zeros((m, m))
    for span in range(1, m):
        i = np.arange(0, m - span)
        j = i + span
        D[i, j] = np.maximum(np.maximum(D[i + 1, j], D[i, j - 1]), sub[i, j])
    return D


def window_table_cases():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 8, 33):
        mat = LpMetric(PointSet(rng.uniform(size=(n, 3)))).matrix()
        for _ in range(3):
            yield f"uniform n={n}", rng.permutation(n), mat
    flat = np.ones((9, 9)) - np.eye(9)
    yield "all-equal", rng.permutation(9), flat
    dup = LpMetric(PointSet(np.repeat(rng.uniform(size=(6, 2)), 3, axis=0))).matrix()
    yield "duplicates", rng.permutation(18), dup
    yield "all-duplicate", rng.permutation(5), np.zeros((5, 5))


def test_window_diameter_table_equals_span_recurrence():
    for name, perm, mat in window_table_cases():
        D = window_diameter_table(perm, mat)
        ref = window_diameter_reference(perm, mat)
        assert D.shape == ref.shape and D.dtype == ref.dtype, name
        assert D.tobytes() == ref.tobytes(), name


def reference_verify_triangle(fam, metric):
    """verify_triangle as a per-ordering (pi, pj) index gather of the span
    recurrence's table."""
    n = metric.n
    mat = metric.matrix()
    best = np.full((n, n), np.inf)
    for o in fam.orderings:
        perm = np.asarray(o.perm, dtype=np.int64)
        D = window_diameter_reference(perm, mat)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        pi = np.minimum(inv[:, None], inv[None, :])
        pj = np.maximum(inv[:, None], inv[None, :])
        best = np.minimum(best, D[pi, pj])
    return _report_from_best("triangle", fam.rho, best, mat)


def triangle_verify_cases():
    for n, d, m in ((2, 2, 1), (3, 2, 1), (17, 2, 1), (40, 4, 1), (60, 2, 2)):
        ps = PointSet(np.random.default_rng(n + d).uniform(size=(n, d)))
        yield f"ball-carving n={n}", build_triangle_lso(ps, 2, 4.0, 0.5, m=m, seed=n), LpMetric(ps)
    metric = LpMetric(PointSet(np.random.default_rng(8).uniform(size=(50, 2))))
    yield "cover preorder", cover_preorder_to_triangle_lso(build_ultrametric_cover(metric, t=4, seed=9)), metric
    yield "planted", OrderingFamily("triangle", [Ordering([0, 2, 1, 3])], rho=2.0), line_metric(
        [0.0, 0.1, 100.0, 100.1]
    )
    dup = LpMetric(PointSet(np.repeat(np.random.default_rng(3).uniform(size=(5, 2)), 2, axis=0)))
    rng = np.random.default_rng(4)
    yield "duplicates", OrderingFamily("triangle", [Ordering(rng.permutation(10)) for _ in range(3)], rho=3.0), dup


def test_verify_triangle_matches_reference_verifier():
    saw_violation = False
    for name, fam, metric in triangle_verify_cases():
        rep = verify_triangle(fam, metric)
        ref = reference_verify_triangle(fam, metric)
        assert rep.pairs_checked == ref.pairs_checked, name
        assert rep.violations == ref.violations, name
        assert rep.max_observed_stretch == ref.max_observed_stretch, name
        saw_violation |= bool(rep.violations)
    assert saw_violation


def bad_id_families(n):
    """(family, bad id) with the bad id in ordering 1, for each family kind."""
    ok = list(range(n))
    for bad in (n, -1):
        for kind in ("classic", "triangle"):
            yield OrderingFamily(kind, [Ordering(ok), Ordering([bad] + ok[1:])], rho=2.0), bad
        yield OrderingFamily("rooted", [Ordering(ok, root=0), Ordering([bad, 0], root=bad)], rho=2.0), bad


def test_verifiers_reject_point_ids_outside_range():
    # unchecked, numpy indexing would wrap -1 to point 2, and [-1, 0, 1]
    # would pass as [2, 0, 1] on the line 0, 1, 2
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    m = shortest_path_metric(g)
    for fam, bad in bad_id_families(3):
        with pytest.raises(ValueError, match=rf"ordering 1 holds point id {bad}, outside 0\.\.2"):
            verify_family(fam, m)


def test_triangle_adjacent_pair_ratio_one():
    m = line_metric([0.0, 1.0, 5.0])
    fam = OrderingFamily("triangle", [Ordering([0, 1, 2])], rho=5.0)
    rep = verify_triangle(fam, m)
    assert rep.passed


def test_triangle_uniform_metric_single_ordering():
    n = 12
    mat = np.ones((n, n)) - np.eye(n)
    fam = OrderingFamily("triangle", [Ordering(range(n))], rho=1.0)
    rep = verify_triangle(fam, MatrixMetric(mat))
    assert rep.passed
    assert rep.max_observed_stretch == pytest.approx(1.0)


def test_triangle_detects_planted_violation():
    # ordering that interleaves two far clusters: windows have huge diameter
    vals = [0.0, 0.1, 100.0, 100.1]
    m = line_metric(vals)
    fam = OrderingFamily("triangle", [Ordering([0, 2, 1, 3])], rho=2.0)
    rep = verify_triangle(fam, m)
    assert not rep.passed
    assert any((x, y) == (0, 1) for x, y, _ in rep.violations)


def test_rooted_star_single_ordering():
    g = WeightedGraph(5, [(0, i, float(i)) for i in range(1, 5)])
    m = shortest_path_metric(g)
    fam = OrderingFamily("rooted", [Ordering([0, 1, 2, 3, 4], root=0)], rho=1.0)
    rep = verify_rooted(fam, m)
    assert rep.passed
    assert rep.max_observed_stretch == pytest.approx(1.0)


def test_rooted_missing_pair_is_infinite_violation():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    m = shortest_path_metric(g)
    fam = OrderingFamily("rooted", [Ordering([0, 1], root=0), Ordering([2], root=2)], rho=10.0)
    rep = verify_rooted(fam, m)
    assert not rep.passed
    assert any(np.isinf(r) for _, _, r in rep.violations)


def test_rooted_unsorted_ordering_rejected():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    m = shortest_path_metric(g)
    fam = OrderingFamily("rooted", [Ordering([0, 2, 1], root=0)], rho=1.0)
    with pytest.raises(ValueError, match="sorted"):
        verify_rooted(fam, m)


def test_tree_lso_single_edge():
    g = WeightedGraph(2, [(0, 1, 3.0)])
    fam = build_rooted_lso_tree(g)
    assert len(fam.orderings) == 1
    rep = verify_rooted(fam, shortest_path_metric(g))
    assert rep.passed


def test_tree_lso_path_membership_bound():
    g = WeightedGraph(8, [(i, i + 1, 1.0) for i in range(7)])
    fam = build_rooted_lso_tree(g)
    counts = {}
    for o in fam.orderings:
        for p in o.perm:
            counts[p] = counts.get(p, 0) + 1
    assert max(counts.values()) <= 3  # ceil(log2 8)


@pytest.mark.parametrize("n,seed", [(30, 0), (64, 1), (100, 2)])
def test_tree_lso_random_trees_exact(n, seed):
    g = random_tree(n, seed)
    fam = build_rooted_lso_tree(g)
    m = shortest_path_metric(g)
    rep = verify_rooted(fam, m)
    assert rep.passed
    assert rep.max_observed_stretch <= 1.0 + 1e-9
    counts = {}
    for o in fam.orderings:
        for p in o.perm:
            counts[p] = counts.get(p, 0) + 1
    assert max(counts.values()) <= int(np.ceil(np.log2(n))) + 1
    # centroid on the tree path: some shared root gives exact equality
    mat = m.matrix()
    mem = fam.membership
    for u in range(0, n, 7):
        for v in range(u + 1, n, 11):
            shared = set(mem[u]) & set(mem[v])
            assert any(
                mat[u, fam.orderings[k].root] + mat[fam.orderings[k].root, v] == mat[u, v]
                for k in shared
            )


def grid_graph(rows, cols):
    edges = []

    def vid(r, c):
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), 1.0))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), 1.0))
    return WeightedGraph(rows * cols, edges)


def sliding_window_decomposition(n, width):
    """Path decomposition with bags {v..v+width} (valid for row-major grids)."""
    bags = [list(range(k, k + width + 1)) for k in range(n - width)]
    edges = [(i, i + 1) for i in range(len(bags) - 1)]
    return TreeDecomposition(bags, edges)


def test_treewidth_tree_natural_decomposition():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
    bags = [[0, 1], [1, 2], [2, 3]]
    td = TreeDecomposition(bags, [(0, 1), (1, 2)])
    fam = build_rooted_lso_treewidth(g, td)
    rep = verify_rooted(fam, shortest_path_metric(g))
    assert rep.passed


def test_treewidth_grid_width4():
    g = grid_graph(4, 4)
    td = sliding_window_decomposition(16, 4)
    assert td.width == 4
    fam = build_rooted_lso_treewidth(g, td)
    rep = verify_rooted(fam, shortest_path_metric(g))
    assert rep.passed
    assert rep.max_observed_stretch <= 1.0 + 1e-9


def test_treewidth_clique_single_bag():
    n = 5
    edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    g = WeightedGraph(n, edges)
    td = TreeDecomposition([list(range(n))], [])
    fam = build_rooted_lso_treewidth(g, td)
    assert len(fam.orderings) == n
    roots = sorted(o.root for o in fam.orderings)
    assert roots == list(range(n))
    assert verify_rooted(fam, shortest_path_metric(g)).passed


def test_treewidth_membership_bound_and_separation():
    g = grid_graph(4, 4)
    td = sliding_window_decomposition(16, 4)
    fam = build_rooted_lso_treewidth(g, td)
    counts = {}
    for o in fam.orderings:
        for p in o.perm:
            counts[p] = counts.get(p, 0) + 1
    k = td.width
    levels = int(np.ceil(np.log2(td.num_bags))) + 1
    assert max(counts.values()) <= (k + 1) * levels
    # recorded separator bag splits every pair in its cluster
    clusters = fam.meta["clusters"]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            holding = [c for c in clusters if u in c["vertices"] and v in c["vertices"]]
            assert holding
            deepest = min(holding, key=lambda c: len(c["vertices"]))
            bag = set(deepest["bag_vertices"])
            inner = [
                c
                for c in clusters
                if len(c["vertices"]) < len(deepest["vertices"])
                and u in c["vertices"]
                and v in c["vertices"]
            ]
            assert not inner
            assert u in bag or v in bag or _separated(deepest, bag, u, v, clusters)


def _separated(cluster, bag, u, v, clusters):
    children = [
        c
        for c in clusters
        if set(c["vertices"]) < set(cluster["vertices"])
    ]
    for c in children:
        if u in c["vertices"] and v in c["vertices"]:
            return False
    return True


def test_treewidth_invalid_decomposition_errors():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError, match="edge coverage"):
        td = TreeDecomposition([[0, 1], [2]], [(0, 1)])
        build_rooted_lso_treewidth(g, td)
    with pytest.raises(ValueError, match="vertex coverage"):
        td = TreeDecomposition([[0, 1]], [])
        build_rooted_lso_treewidth(g, td)
    with pytest.raises(ValueError, match="connectivity"):
        td = TreeDecomposition([[0, 1], [1, 2], [0, 2]], [(0, 1), (1, 2)])
        build_rooted_lso_treewidth(g, td)


def test_verifiers_are_pure():
    g = random_tree(20, 5)
    fam = build_rooted_lso_tree(g)
    m = shortest_path_metric(g)
    r1 = verify_rooted(fam, m)
    r2 = verify_rooted(fam, m)
    assert r1.violations == r2.violations
    assert r1.max_observed_stretch == r2.max_observed_stretch
