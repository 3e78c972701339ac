"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria run at their
stated sizes; the wall-clock budgets are asserted where the criterion builds
are randomized (generous CI margins are deliberate).
"""

import math
import time

import numpy as np
import pytest

from lsorder.doubling import build_ultrametric_cover, cover_preorder_to_triangle_lso
from lsorder.euclidean import build_classic_grid_lso, build_triangle_lso_verified
from lsorder.hopsets import FtTwoHopPathSpanner, TwoHopPathSpanner
from lsorder.metrics import LpMetric, PointSet, WeightedGraph, shortest_path_metric
from lsorder.nns import (
    PredecessorSet,
    RootedNns,
    TriangleNns,
    UltrametricNns,
    assign_rooted_labels,
    assign_triangle_labels,
)
from lsorder.orderings import (
    Ordering,
    OrderingFamily,
    TreeDecomposition,
    build_rooted_lso_tree,
    build_rooted_lso_treewidth,
    verify_rooted,
    verify_triangle,
    window_diameter_table,
)
from lsorder.spanners import (
    ft_spanner_from_family,
    spanner_oracle_classic,
    sparse_cover_spanner,
    tz_spanner,
)
from test_euclidean import estimate_volume_ratio
from test_spanners import shortest_paths_on_edges, verify_padding

PASS_LINES = []


def passed(num, text):
    line = f"[PASS] criterion {num}: {text}"
    PASS_LINES.append(line)
    print("\n" + line)


def random_tree(n, seed):
    rng = np.random.default_rng(seed)
    return WeightedGraph(
        n, [(int(rng.integers(0, v)), v, float(rng.integers(1, 5))) for v in range(1, n)]
    )


def random_metric(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(1.0, 10.0, size=(n, n))
    raw = (raw + raw.T) / 2
    np.fill_diagonal(raw, 0.0)
    g = WeightedGraph(
        n, [(i, j, float(raw[i, j])) for i in range(n) for j in range(i + 1, n)]
    )
    return shortest_path_metric(g)


def random_triangle_family(n, tau, rho, seed):
    """Negative control: tau seeded random permutations at rho."""
    rng = np.random.default_rng(seed)
    return OrderingFamily("triangle", [Ordering(rng.permutation(n)) for _ in range(tau)], rho=rho)


def _bitlen(v):
    out = np.zeros(v.shape, dtype=np.int64)
    work = v.copy()
    for sh in (32, 16, 8, 4, 2, 1):
        mask = work >= (1 << sh)
        out[mask] += sh
        work[mask] >>= sh
    out[v > 0] += 1
    return out


def _membership_batch(s, i_arr, l_arr):
    """Vectorized l in E_i for the two-hop structure."""
    same = l_arr == i_arr
    low = l_arr & (-l_arr)
    m = _bitlen(low)
    ok = (m <= s.delta) & ((i_arr - 1) >> m == l_arr >> m)
    return same | ok


def test_criterion_1_two_hop_path_spanner():
    start = time.time()
    for delta in range(1, 13):
        n = 1 << delta
        s = TwoHopPathSpanner(n)
        assert s.num_edges() == n * delta + 1, (n, s.num_edges())
    n = 4096
    s = TwoHopPathSpanner(n)
    for i in range(1, n + 1):
        j = np.arange(i, n + 1, dtype=np.int64)
        ii = np.full(j.shape, i, dtype=np.int64)
        l = s.query_batch(ii, j)
        assert np.all((ii <= l) & (l <= j)), i
        assert np.all(_membership_batch(s, ii, l)), i
        assert np.all(_membership_batch(s, j, l)), i
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j = sorted(rng.integers(1, n + 1, size=2).tolist())
        l = s.query(i, j)
        assert s.in_edge_set(i, l) and s.in_edge_set(j, l) and i <= l <= j
    elapsed = time.time() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    passed(1, f"edge counts exact for delta<=12; all-pairs n=4096 monotone 2-hop ({elapsed:.1f}s)")


def test_criterion_2_ft_path_spanner():
    start = time.time()
    rng = np.random.default_rng(1)
    n = 512
    delta = 9  # padded size 512 = 2^9
    for f in (1, 2, 4):
        s = FtTwoHopPathSpanner(n, f)
        fp = s.f
        assert s.num_edges() <= ((1 << delta) * delta + 1) * (fp + 1)
        all_pos = np.arange(1, n + 1, dtype=np.int64)
        for trial in range(1000):
            faults = rng.choice(all_pos, size=fp, replace=False)
            fmask = np.zeros(n + 2, dtype=bool)
            fmask[faults] = True
            alive = all_pos[~fmask[all_pos]]
            iu, iv = np.triu_indices(alive.size, k=1)
            a, b = alive[iu], alive[iv]
            l = s.query_batch(a, b, fmask)
            assert np.all((a <= l) & (l <= b))
            assert not np.any(fmask[l])
            if trial % 100 == 0:
                for idx in rng.integers(0, a.size, size=10):
                    x, y, z = int(a[idx]), int(b[idx]), int(l[idx])
                    if z in (x, y):
                        assert s.has_edge(x, y)
                    else:
                        assert s.has_edge(x, z) and s.has_edge(z, y)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    passed(2, f"n=512, f in {{1,2,4}}, 1000 fault sets each: surviving 2-hop paths ({elapsed:.1f}s)")


def test_criterion_3_euclidean_triangle_lso():
    start = time.time()
    delta = 0.5
    for d in (2, 4, 8):
        rng = np.random.default_rng(100 + d)
        ps = PointSet(rng.uniform(size=(200, d)))
        t = max(4.0, 2.0 * math.sqrt(d))
        fam = build_triangle_lso_verified(ps, p=2, t=t, delta=delta, seed=42)
        rep = fam.meta["verification"]
        assert rep.passed
        assert rep.rho == pytest.approx((1 + delta) * t)
        assert fam.meta["attempts"] <= 7  # <= 6 doublings
        if d == 8:
            # vacuous: dmax/dmin is 8.7 here, so random permutations of the
            # same tau pass at this rho (max stretch 4.2 at seed 308); this
            # instance cannot catch a broken construction
            continue
        control = random_triangle_family(200, len(fam.orderings), fam.rho, seed=300 + d)
        assert not verify_triangle(control, LpMetric(ps)).passed
    # DP window diameters equal naive maxima on n <= 40 subsets
    rng = np.random.default_rng(7)
    pts = PointSet(rng.uniform(size=(40, 3)))
    mat = LpMetric(pts).matrix()
    perm = list(rng.permutation(40))
    D = window_diameter_table(perm, mat)
    for i in range(40):
        for j in range(i, 40):
            sub = perm[i : j + 1]
            assert D[i, j] == max(mat[a, b] for a in sub for b in sub)
    elapsed = time.time() - start
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s"
    passed(3, f"d in {{2,4,8}}, n=200 verified at rho=(1+delta)t; random controls fail at d in {{2,4}}; DP = naive ({elapsed:.1f}s)")


def test_criterion_4_volume_ratio_monte_carlo():
    start = time.time()
    d = 16
    for s in (0.05, 0.125, 0.2, 1 / math.sqrt(d)):
        est = estimate_volume_ratio(d, 1.0, s, p=2, samples=1_000_000, seed=4)
        assert est.estimate + 3 * est.stderr >= 1 - math.sqrt(d) * s, s
    lens = 2 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
    oracle = lens / (2 * math.pi - lens)
    est2 = estimate_volume_ratio(2, 1.0, 1.0, p=2, samples=1_000_000, seed=5)
    assert abs(est2.estimate - oracle) <= 3 * est2.stderr
    for s in (0.005, 0.02):
        est1 = estimate_volume_ratio(8, 1.0, s, p=1, samples=1_000_000, seed=6)
        assert est1.estimate + 3 * est1.stderr >= 1 - 4 * 8 * s
    elapsed = time.time() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    passed(4, f"d=16 small-sep bound, d=2 lens closed form, l1 bound ({elapsed:.1f}s)")


def test_criterion_5_doubling_pipeline():
    start = time.time()
    rng = np.random.default_rng(99)
    ps = PointSet(rng.uniform(size=(200, 2)))
    metric = LpMetric(ps)
    base = metric.matrix()
    iu = np.triu_indices(200, k=1)
    for t in (4, 8):
        cover = build_ultrametric_cover(metric, t=t, seed=11)
        dmin = cover.min_distance_matrix()
        assert np.all(dmin[iu] >= base[iu])  # dominating, exact
        assert np.all(dmin[iu] <= t * base[iu] * (1 + 1e-9))
        fam = cover_preorder_to_triangle_lso(cover)
        rep = verify_triangle(fam, metric)
        assert rep.passed, rep.summary()
        control = random_triangle_family(200, len(fam.orderings), fam.rho, seed=400 + t)
        assert not verify_triangle(control, metric).passed
        # subtree contiguity, exact
        for hst in cover.hsts[::17]:
            order = hst.preorder_leaves()
            pos = {p: i for i, p in enumerate(order)}

            def rec(node):
                if not node.children:
                    return [node.point]
                leaves = []
                for ch in node.children:
                    leaves.extend(rec(ch))
                idx = sorted(pos[p] for p in leaves)
                assert idx == list(range(idx[0], idx[-1] + 1))
                return leaves

            rec(hst.root)
    elapsed = time.time() - start
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s"
    passed(5, f"n=200 t in {{4,8}}: dominating cover, stretch <= t, preorder family, random controls fail ({elapsed:.1f}s)")


def test_criterion_6_rooted_constructions():
    start = time.time()
    for n, seed in ((200, 3), (1024, 4)):
        g = random_tree(n, seed)
        fam = build_rooted_lso_tree(g)
        metric = shortest_path_metric(g)
        rep = verify_rooted(fam, metric)
        assert rep.passed
        assert rep.max_observed_stretch <= 1.0 + 1e-9
        counts = {}
        for o in fam.orderings:
            for p in o.perm:
                counts[p] = counts.get(p, 0) + 1
        assert max(counts.values()) <= math.ceil(math.log2(n)) + 1
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
    assert td.width == 4
    fam = build_rooted_lso_treewidth(g, td)
    rep = verify_rooted(fam, shortest_path_metric(g))
    assert rep.passed
    elapsed = time.time() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    passed(6, f"trees n<=1024 rho=1, membership bound; grid width-4 rho=1 ({elapsed:.1f}s)")


def test_criterion_7_labeled_nns():
    start = time.time()
    # rooted NNS on a tree: exact at rho = 1, 10^3 (P, q) instances
    g = random_tree(200, 5)
    fam = build_rooted_lso_tree(g)
    metric = shortest_path_metric(g)
    mat = metric.matrix()
    labels = assign_rooted_labels(fam, metric)
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 1000:
        stored = sorted(rng.choice(200, size=int(rng.integers(1, 100)), replace=False).tolist())
        nns = RootedNns(fam, labels)
        for pid in stored:
            nns.insert(pid)
        for q in rng.integers(0, 200, size=25):
            q = int(q)
            if q in stored:
                continue
            ans, est = nns.query(labels[q])
            true_min = min(mat[q, s] for s in stored)
            assert mat[q, ans] <= true_min * (1 + 1e-12)
            assert est >= mat[q, ans] - 1e-12
            checked += 1
    # triangle NNS on Euclidean d=4 within 2*rho of linear scan, 10^3 queries.
    # Vacuous: TriangleNns over 51 seeded random permutations (seeds 700 to
    # 703) with the same stored points answers every unstored query within
    # 1.73 to 3.02 of the nearest, below 2*rho = 3.60 here, so this instance
    # cannot catch a broken family or label assignment
    rng2 = np.random.default_rng(7)
    ps = PointSet(rng2.uniform(size=(100, 4)))
    emetric = LpMetric(ps)
    emat = emetric.matrix()
    efam = build_triangle_lso_verified(ps, p=2, t=4.0, delta=0.5, seed=8)
    rho = efam.meta["verification"].max_observed_stretch
    elabels, hop = assign_triangle_labels(efam, emetric)
    tn = TriangleNns(efam, elabels, hop)
    stored = sorted(rng2.choice(100, size=40, replace=False).tolist())
    for pid in stored:
        tn.insert(pid)
    qcount = 0
    while qcount < 1000:
        q = int(rng2.integers(0, 100))
        if q in stored:
            continue
        ans, est = tn.query(elabels[q])
        true_min = min(emat[q, s] for s in stored)
        assert emat[q, ans] <= 2 * rho * true_min * (1 + 1e-9)
        assert est >= emat[q, ans] - 1e-12
        qcount += 1
    # 10^4-op update/query fuzz with 100 rebuild-equivalence checkpoints
    dyn = TriangleNns(efam, elabels, hop)
    live = set()
    for step in range(10_000):
        if live and rng2.random() < 0.45:
            pid = int(rng2.choice(sorted(live)))
            dyn.delete(pid)
            live.discard(pid)
        else:
            pid = int(rng2.integers(0, 100))
            dyn.insert(pid)
            live.add(pid)
        if live and step % 100 == 0:
            fresh = TriangleNns(efam, elabels, hop)
            for pid in sorted(live):
                fresh.insert(pid)
            q = int(rng2.integers(0, 100))
            assert dyn.query(elabels[q]) == fresh.query(elabels[q])
    # 10^5-op predecessor fuzz with an identical transcript
    from tests.test_nns import SortedListOracle

    s = PredecessorSet(1 << 20)
    oracle = SortedListOracle()
    rng3 = np.random.default_rng(9)
    transcript_s = []
    transcript_o = []
    for _ in range(100_000):
        op = rng3.integers(0, 5)
        x = int(rng3.integers(0, 1 << 20))
        if op == 0:
            transcript_s.append(("ins", s.insert(x)))
            before = x not in oracle.items
            oracle.insert(x)
            transcript_o.append(("ins", before))
        elif op == 1 and oracle.items:
            y = oracle.items[int(rng3.integers(0, len(oracle.items)))]
            transcript_s.append(("del", s.delete(y)))
            oracle.delete(y)
            transcript_o.append(("del", True))
        elif op == 2:
            transcript_s.append(("pred", s.predecessor(x)))
            transcript_o.append(("pred", oracle.predecessor(x)))
        elif op == 3:
            transcript_s.append(("succ", s.successor(x)))
            transcript_o.append(("succ", oracle.successor(x)))
        else:
            transcript_s.append(("min", s.minimum()))
            transcript_o.append(("min", oracle.minimum()))
    assert transcript_s == transcript_o
    elapsed = time.time() - start
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.1f}s"
    passed(7, f"rooted exact, triangle 2rho, fuzz + rebuild, predecessor transcript ({elapsed:.1f}s)")


def test_criterion_8_ultrametric_exact_nns():
    start = time.time()
    from tests.test_nns import random_hst

    hst = random_hst(256, 10)
    du = hst.distance_matrix()
    nns = UltrametricNns(hst)
    rng = np.random.default_rng(11)
    stored = sorted(rng.choice(256, size=90, replace=False).tolist())
    for pid in stored:
        nns.insert(pid)
    for _ in range(1000):
        q = int(rng.integers(0, 256))
        _, dist = nns.query(q)
        expected = 0.0 if q in stored else min(du[q, s] for s in stored)
        assert dist == expected
    elapsed = time.time() - start
    passed(8, f"random HST n=256, 10^3 queries exactly match linear scan ({elapsed:.1f}s)")


def test_criterion_9_tz_spanner():
    start = time.time()
    for k in (2, 3):
        n = 256
        metric = random_metric(n, 20 + k)
        sp = tz_spanner(metric, k=k, seed=12)
        mat = metric.matrix()
        assert sp.total_bunch <= 4 * k * n ** (1 + 1 / k)
        for u in range(n):
            for v in range(u + 1, n):
                path, w = sp.query(u, v)
                assert len(path) - 1 <= 2
                assert sp.last_iters <= k
                assert w <= (2 * k - 1) * mat[u, v] * (1 + 1e-9)
    # bunch definition vs level sets at n = 128
    n = 128
    k = 3
    metric = random_metric(n, 23)
    sp = tz_spanner(metric, k=k, seed=13)
    mat = metric.matrix()
    for v in range(n):
        expected = {}
        for i in range(k):
            d_next = min((mat[v, w] for w in sp.oracle.levels[i + 1]), default=math.inf)
            for w in sp.oracle.levels[i]:
                if mat[v, w] < d_next:
                    expected[w] = mat[v, w]
        assert set(sp.oracle.bunches[v]) == set(expected)
    elapsed = time.time() - start
    assert elapsed < 120.0, f"criterion 9 took {elapsed:.1f}s"
    passed(9, f"n=256 k in {{2,3}} all-pairs <= (2k-1)d; bunches validated at n=128 ({elapsed:.1f}s)")


def test_criterion_10_sparse_cover_spanner():
    start = time.time()
    n, k, eps = 200, 2, 0.25
    metric = random_metric(n, 30)
    tzsp = tz_spanner(metric, k=k, seed=14)
    cover = sparse_cover_spanner(metric, k=k, eps=eps, estimator=lambda u, v: tzsp.query(u, v)[1])
    assert verify_padding(cover)
    mat = metric.matrix()
    bound = (1 + eps) * (4 * k - 2)
    scan_cap = math.ceil(math.log(2 * k) / math.log(1 + eps)) + 3
    for u in range(n):
        for v in range(u + 1, n):
            path, w = cover.query(u, v)
            assert w <= bound * mat[u, v] * (1 + 1e-9)
            assert cover.last_scanned <= scan_cap
    elapsed = time.time() - start
    passed(10, f"n=200 k=2 eps=1/4: stretch <= {bound}, scans <= {scan_cap}, padding ok ({elapsed:.1f}s)")


def test_criterion_11_ft_meta_spanners():
    """The residual bound 2*rho holds under 500 random fault sets at the
    budget, and the attacks do move midpoints (recomputed rows > 0).

    The n=200 instance cannot fail a broken family.  A family of 99
    random permutations at the same rho also passes all 500 attacks: the
    max residual ratio was 1.40 to 5.27 against the bound 16 over four
    permutation seeds.  At this size tau FT orderings give nearly every
    pair a direct edge (19,881 of the 19,900 pairs for the verified family,
    all of them for the random ones).  The instance is kept as it is; a
    discriminating one is still open."""
    start = time.time()
    rng = np.random.default_rng(31)
    ps = PointSet(rng.uniform(size=(200, 2)))
    metric = LpMetric(ps)
    cover = build_ultrametric_cover(metric, t=8, seed=15)
    fam = cover_preorder_to_triangle_lso(cover)
    f = 2
    ft = ft_spanner_from_family(fam, metric, f)
    mat = metric.matrix()
    bound = 2 * fam.rho
    recomputed = 0
    for attack in range(500):
        faults = set(rng.choice(200, size=f, replace=False).tolist())
        alive, weights = ft.residual_all_pairs_weights(faults)
        recomputed += ft.last_recomputed
        iu, iv = np.triu_indices(alive.size, k=1)
        d = mat[alive[iu], alive[iv]]
        assert np.all(weights <= bound * d * (1 + 1e-9))
    assert recomputed > 0
    # rooted star: first f+1 points rule is exact
    g = WeightedGraph(8, [(0, i, 1.0) for i in range(1, 8)])
    smetric = shortest_path_metric(g)
    sfam = OrderingFamily("rooted", [Ordering(list(range(8)), root=0)], rho=1.0)
    sft = ft_spanner_from_family(sfam, smetric, f=1)
    path, w = sft.query(2, 3, {0})
    assert path == [2, 1, 3]  # second point of the ordering serves
    assert w <= 2 * smetric.dist(2, 3)
    elapsed = time.time() - start
    passed(11, f"doubling family n=200 f=2, 500 attacks residual <= 2rho; star rule ({elapsed:.1f}s)")


def test_criterion_12_spanner_oracles():
    start = time.time()
    # classic oracle on the line (tau = 1): Ws <= 2 exactly
    vals = np.arange(64.0)
    ps = PointSet([[v] for v in vals])
    fam = OrderingFamily("classic", [Ordering(range(64))], rho=0.2)
    metric = LpMetric(ps, 1)
    oracle = spanner_oracle_classic(fam, metric)
    rng = np.random.default_rng(16)
    for _ in range(100):
        m = int(rng.integers(2, 40))
        terminals = sorted(rng.choice(64, size=m, replace=False).tolist())
        L = float(rng.uniform(0.5, 80.0))
        edges = oracle(terminals, L)
        assert sum(w for _, _, w in edges) <= (m - 1) * 2 * L + 1e-9
    assert oracle.weak_sparsity <= 2.0
    # Euclidean instance: measured Ws <= 2 tau over 100 random (T, L)
    rng2 = np.random.default_rng(17)
    pts = PointSet(rng2.uniform(size=(80, 2)))
    grid = build_classic_grid_lso(pts, eps=0.2, seed=18)
    gfam = grid.family
    gmetric = LpMetric(pts)
    gmat = gmetric.matrix()
    goracle = spanner_oracle_classic(gfam, gmetric)
    stretch_checked = 0
    for _ in range(100):
        m = int(rng2.integers(2, 40))
        terminals = sorted(rng2.choice(80, size=m, replace=False).tolist())
        L = float(rng2.uniform(0.05, 0.8))
        edges = goracle(terminals, L)
        dists = shortest_paths_on_edges(80, edges, terminals)
        for i, u in enumerate(terminals):
            for v in terminals[i + 1 :]:
                if L <= gmat[u, v] < 2 * L:
                    assert dists[u][v] <= (1 + 8 * 0.2) * gmat[u, v] * (1 + 1e-9)
                    stretch_checked += 1
    assert goracle.weak_sparsity <= 2 * len(gfam.orderings)
    assert stretch_checked > 100
    elapsed = time.time() - start
    passed(12, f"line Ws <= 2; Euclidean Ws <= 2tau and 1+8rho stretch ({elapsed:.1f}s)")
