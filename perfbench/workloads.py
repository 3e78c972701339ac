"""The three benchmark workloads and the recorder they report into.

Each workload runs in rounds.  A round follows the user's flow on a fresh
input instance drawn from (seed, round):

    gen -> fileio write/read -> metric view     (setup)
    every structure, self-verify included      (build)
    verify_family on every family built        (verify)
    scalar query streams and vectorised batches

Only library calls sit inside the timed regions.  Every output that a timed
region produces is checked afterwards, in ``rec.checking()``, against brute
force on the metric matrix; a failed check counts toward ``failed``.

Why these three workloads: each one puts a different module at the centre, so
an optimisation of one layer shows on one workload and predicts no change on
another.
  euclid-l2          the Euclidean triangle LSO (ball carving) and the grid
                     classic LSO; no doubling code runs.
  doubling-clusters  the ultrametric cover of a clustered doubling metric and
                     the spanners for general metrics; no Euclidean code runs.
  tree-serve         query-heavy: rooted tree LSO, hop structures, NNS writes,
                     SPD; neither Euclidean-style build runs.
"""

import contextlib
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

from lsorder import doubling, euclidean, fileio, hopsets, metrics, nns, orderings, spanners

REL_TOL = 1e-9
FAULTS = 2  # fault budget of every FT structure; fault sets are at the budget

clock = time.perf_counter


class Recorder:
    """Per-round phase and batch times, call latencies and layer counters,
    and the output checks, of one pass over the rounds."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.rounds = []  # per round: {"setup": s, "build": s, "verify": s, "batch": s, ...}
        self.round_counters = []
        self.latency = []  # per round: {stream: [seconds per call]}
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.known_defects = Counter()

    def start_round(self):
        self.rounds.append(defaultdict(float))
        self.round_counters.append({})
        self.latency.append(defaultdict(list))

    @contextlib.contextmanager
    def phase(self, name):
        if self.tracer is not None:
            self.tracer.operation(name)
        start = clock()
        try:
            yield
        finally:
            self.rounds[-1][name] += clock() - start

    @contextlib.contextmanager
    def checking(self):
        """Checks call library code too; keep them out of the trace."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def timed_calls(self, stream, fn, calls):
        """Call fn(*args) for each args tuple, timing each call alone."""
        lat = self.latency[-1][stream]
        out = []
        for args in calls:
            if self.tracer is not None:
                self.tracer.operation(stream)  # one operation per request
            start = clock()
            result = fn(*args)
            lat.append(clock() - start)
            out.append(result)
        return out

    def timed_batch(self, pairs, fn, *args):
        if self.tracer is not None:
            self.tracer.operation("batch")
        start = clock()
        result = fn(*args)
        self.rounds[-1]["batch"] += clock() - start
        self.rounds[-1]["batch_pairs"] += pairs
        return result

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[name] += 1

    def count(self, name, value):
        counters = self.round_counters[-1]
        counters[name] = counters.get(name, 0) + value

    def count_max(self, name, value):
        counters = self.round_counters[-1]
        counters[name] = max(counters.get(name, value), value)


def _rng(seed, round_idx, tag):
    return np.random.default_rng([seed, round_idx, tag])


def _build_seed(seed, round_idx):
    return int(np.random.SeedSequence([seed, round_idx, 99]).generate_state(1)[0])


def _pairs(rng, n, count):
    """count uniform pairs (u, v) with u != v over 0..n-1."""
    u = rng.integers(0, n, size=count)
    v = (u + rng.integers(1, n, size=count)) % n
    return [(int(a), int(b)) for a, b in zip(u, v)]


def _family_roundtrip(rec, fam, path):
    fileio.write_family(path, fam)
    rec.count("fileio.bytes", os.path.getsize(path))
    return fileio.read_family(path)


def _same_family(fam, other):
    return fam.kind == other.kind and [o.perm for o in fam.orderings] == [
        o.perm for o in other.orderings
    ]


def _check_verifications(rec, reports):
    for name, rep in reports:
        rec.check(name, rep.passed)
        rec.count("orderings.pairs_checked", rep.pairs_checked)
        rec.count_max("orderings.max_stretch_ratio", rep.max_observed_stretch / rep.rho)


def _check_paths(rec, name, sp, mat, pairs, results, faults=()):
    """Each answer is a u..v path of spanner edges, avoiding the faults,
    whose weight is its true length and within stretch * d(u, v)."""
    banned = set(faults)
    for (u, v), result in zip(pairs, results):
        path, w = result[0], result[1]
        d = mat[u, v]
        length = sum(mat[a, b] for a, b in zip(path, path[1:]))
        try:
            sp.check_path(path)
            edges_ok = True
        except AssertionError:
            edges_ok = False
        rec.check(
            name,
            edges_ok
            and path[0] == u
            and path[-1] == v
            and not banned.intersection(path[1:-1])
            and math.isclose(w, length, rel_tol=REL_TOL, abs_tol=1e-12)
            and w <= sp.stretch * d * (1 + REL_TOL),
        )
        if d > 0:
            rec.count_max("spanners.max_stretch_ratio", w / d)


def _check_weights(rec, name, pairs, results, weights):
    """Scalar answers agree with the vectorised all-pairs weights."""
    for (u, v), result in zip(pairs, results):
        rec.check(name, math.isclose(result[1], weights[u, v], rel_tol=REL_TOL, abs_tol=1e-12))


def _residual_matrix(n, alive, best):
    out = np.full((n, n), np.nan)
    iu, iv = np.triu_indices(alive.size, k=1)
    out[alive[iu], alive[iv]] = best
    out[alive[iv], alive[iu]] = best
    return out


def _fault_sets(rng, n, count, size=FAULTS):
    return [tuple(int(x) for x in rng.choice(n, size=size, replace=False)) for _ in range(count)]


def _ft_stream(rec, name, ft, mat, rng, sets, per_set, residual_sets):
    """FT queries under seeded fault sets at the budget; the first
    residual_sets sets are also answered by residual_all_pairs_weights."""
    n = mat.shape[0]
    for k, faults in enumerate(_fault_sets(rng, n, sets, ft.f)):
        alive = [p for p in range(n) if p not in faults]
        idx = rng.choice(len(alive), size=(per_set, 2))
        pairs = [(alive[a], alive[b]) for a, b in idx if a != b]
        results = rec.timed_calls("ft", ft.query, [(u, v, faults) for u, v in pairs])
        if k < residual_sets:
            survivors = n - len(faults)
            alive_arr, best = rec.timed_batch(
                survivors * (survivors - 1) // 2, ft.residual_all_pairs_weights, faults
            )
        with rec.checking():
            _check_paths(rec, f"{name}.path", ft, mat, pairs, results, faults)
            if k < residual_sets:
                dist = mat[np.ix_(alive_arr, alive_arr)][np.triu_indices(alive_arr.size, k=1)]
                rec.check(f"{name}.residual_stretch", bool(
                    np.all(np.isfinite(best)) and np.all(best <= ft.stretch * dist * (1 + REL_TOL))
                ))
                residual = _residual_matrix(n, alive_arr, best)
                _check_weights(rec, f"{name}.scalar_vs_batch", pairs, results, residual)


def _nns_stream(rec, index, rng, n, ops, query_arg, answer_bound):
    """Start from a random half stored, then alternate a query on an unstored
    point with an insert or delete.  answer_bound(q, ans, stored_mask) -> ok."""
    stored = np.zeros(n, dtype=bool)
    first = rng.permutation(n)[: n // 2]
    rec.timed_calls("nns_update", index.insert, [(int(p),) for p in first])
    stored[first] = True
    for k in range(ops):
        if k % 2 == 0:
            q = int(rng.choice(np.nonzero(~stored)[0]))
            (answer,) = rec.timed_calls("nns_query", index.query, [(query_arg(q),)])
            with rec.checking():
                ans = answer[0]
                rec.check("nns.answer", bool(stored[ans]) and answer_bound(q, ans, stored))
        elif k % 4 == 1:
            p = int(rng.choice(np.nonzero(stored)[0]))
            rec.timed_calls("nns_update", index.delete, [(p,)])
            stored[p] = False
        else:
            p = int(rng.choice(np.nonzero(~stored)[0]))
            rec.timed_calls("nns_update", index.insert, [(p,)])
            stored[p] = True


def _rho_bound(rec, mat, rho):
    """NNS contract: d(q, answer) <= rho * d(q, nearest stored)."""

    def ok(q, ans, stored):
        best = mat[q, stored].min()
        if best > 0:
            rec.count_max("nns.max_ratio", mat[q, ans] / best)
        return mat[q, ans] <= rho * best * (1 + REL_TOL)

    return ok


def _label_counters(rec, labels):
    report = nns.label_budget_report(labels)
    rec.count_max("nns.label_max_entries", report["max_entries"])
    rec.count("nns.label_mean_entries", report["mean_entries"])


def _points_setup(workdir, points):
    path = os.path.join(workdir, "points.txt")
    fileio.write_points(path, metrics.PointSet(points))
    ps = fileio.read_points(path)
    metric = metrics.LpMetric(ps)
    metric.matrix()
    return path, ps, metric


# ---------------------------------------------------------------------------
# euclid-l2


EUCLID = dict(n=96, dim=2, t=4.0, delta=0.5, grid_n=32, grid_eps=0.25, paths=1000,
              batch_reps=8, ft_sets=8, ft_per_set=30, ft_residual_sets=2, nns_ops=3000)


def euclid_round(rec, workdir, seed, r):
    c = EUCLID
    gen = _rng(seed, r, 1)
    with rec.phase("setup"):
        points = gen.uniform(size=(c["n"], c["dim"]))
        path, ps, metric = _points_setup(workdir, points)
    rec.count("fileio.bytes", os.path.getsize(path))
    mat = metric.matrix()
    n = ps.n
    bseed = _build_seed(seed, r)
    fam_path = os.path.join(workdir, "family.json")
    with rec.phase("build"):
        built = euclidean.build_triangle_lso_verified(ps, 2, c["t"], c["delta"], seed=bseed)
        fam = _family_roundtrip(rec, built, fam_path)
        sub = metrics.PointSet(ps.points[: c["grid_n"]])
        grid = euclidean.build_classic_grid_lso(sub, c["grid_eps"], seed=bseed)
        sp = spanners.pr_spanner_from_triangle(fam, metric)
        ft = spanners.ft_spanner_from_family(fam, metric, FAULTS)
        labels, hop = nns.assign_triangle_labels(fam, metric)
        index = nns.TriangleNns(fam, labels, hop)
    with rec.phase("verify"):
        rep = orderings.verify_family(fam, metric)
        sub_metric = metrics.LpMetric(sub)
        grid_rep = orderings.verify_family(grid.family, sub_metric, hint=grid.satisfying_ordering)
    with rec.checking():
        rec.check("fileio.family_roundtrip", _same_family(built, fam))
        _check_verifications(rec, [
            ("triangle.self_verify", built.meta["verification"]),
            ("grid.self_verify", grid.family.meta["verification"]),
            ("triangle.verify", rep),
            ("grid.verify", grid_rep),
        ])
        rec.count("euclidean.orderings", built.tau)
        rec.count("euclidean.attempts", built.meta["attempts"])
        rec.count("euclidean.centers", sum(
            len(centers) for scheme in built.meta["schemes"] for centers in scheme.centers.values()
        ))
        rec.count("euclidean.grid_orderings", len(grid.family.orderings))
        rec.count("euclidean.grid_shifts", len(grid.shifts))
        rec.count("spanners.edges", sp.num_edges() + ft.num_edges())
        rec.count("hopsets.ft_edges", ft.ft.num_edges())
        _label_counters(rec, labels)

    q = _rng(seed, r, 2)
    pairs = _pairs(q, n, c["paths"])
    results = rec.timed_calls("path", sp.query, pairs)
    for _ in range(c["batch_reps"]):
        weights = rec.timed_batch(n * (n - 1) // 2, sp.all_pairs_weights)
    with rec.checking():
        _check_paths(rec, "triangle_spanner.path", sp, mat, pairs, results)
        _check_weights(rec, "triangle_spanner.scalar_vs_batch", pairs, results, weights)
    _ft_stream(rec, "triangle_ft", ft, mat, q, c["ft_sets"], c["ft_per_set"], c["ft_residual_sets"])
    _nns_stream(rec, index, q, n, c["nns_ops"], lambda p: labels[p],
                _rho_bound(rec, mat, 2 * fam.rho))


# ---------------------------------------------------------------------------
# doubling-clusters


DOUBLING = dict(n=64, dim=2, clusters=4, sigma=0.05, t=8.0, tz_k=2, cover_eps=0.5,
                paths=1000, ft_sets=8, ft_per_set=25, attacks=8, nns_ops=2000)


def _gaussian_clusters(rng, n, dim, clusters, sigma):
    centers = rng.uniform(size=(clusters, dim))
    idx = rng.integers(0, clusters, size=n)
    return centers[idx] + rng.normal(scale=sigma, size=(n, dim))


def doubling_round(rec, workdir, seed, r):
    c = DOUBLING
    gen = _rng(seed, r, 1)
    with rec.phase("setup"):
        points = _gaussian_clusters(gen, c["n"], c["dim"], c["clusters"], c["sigma"])
        path, ps, metric = _points_setup(workdir, points)
    rec.count("fileio.bytes", os.path.getsize(path))
    mat = metric.matrix()
    n = ps.n
    bseed = _build_seed(seed, r)
    cover_path = os.path.join(workdir, "cover.json")
    fam_path = os.path.join(workdir, "family.json")
    with rec.phase("build"):
        built = doubling.build_ultrametric_cover(metric, t=c["t"], seed=bseed)
        fileio.write_cover(cover_path, built)
        cover = fileio.read_cover(cover_path)
        preorder = doubling.cover_preorder_to_triangle_lso(cover)
        fam = _family_roundtrip(rec, preorder, fam_path)
        ft = spanners.ft_spanner_from_family(fam, metric, FAULTS)
        tz = spanners.tz_spanner(metric, c["tz_k"], seed=bseed)
        sc = spanners.sparse_cover_spanner(
            metric, c["tz_k"], c["cover_eps"], estimator=lambda u, v: tz.query(u, v)[1]
        )
        index = nns.UltrametricNns(cover.hsts[0])
    with rec.phase("verify"):
        rep = orderings.verify_family(fam, metric)
    with rec.checking():
        rec.count("fileio.bytes", os.path.getsize(cover_path))
        rec.check("fileio.cover_roundtrip", [h.preorder_leaves() for h in built.hsts]
                  == [h.preorder_leaves() for h in cover.hsts])
        rec.check("fileio.family_roundtrip", _same_family(preorder, fam))
        _check_verifications(rec, [("preorder_lso.verify", rep)])
        rec.count("doubling.hsts", cover.tau)
        rec.count("doubling.rounds", built.rounds)
        rec.count("spanners.tz_attempts", tz.attempts)
        rec.count("spanners.edges", ft.num_edges() + tz.num_edges() + sc.num_edges())
        rec.count("hopsets.ft_edges", ft.ft.num_edges())
        _label_counters(rec, index.labels)
        ultra = cover.hsts[0].distance_matrix()

    q = _rng(seed, r, 2)
    pairs = _pairs(q, n, c["paths"])
    results = rec.timed_calls("path", sc.query, pairs)
    with rec.checking():
        _check_paths(rec, "sparse_cover.path", sc, mat, pairs, results)
        tz_pairs = pairs[:100]
        _check_paths(rec, "tz.path", tz, mat, tz_pairs, [tz.query(u, v) for u, v in tz_pairs])
    _ft_stream(rec, "meta_ft", ft, mat, q, c["ft_sets"], c["ft_per_set"], c["attacks"])

    def exact(qp, ans, stored):
        best = ultra[qp, stored].min()
        if best > 0:
            rec.count_max("nns.max_ratio", ultra[qp, ans] / best)
        return ultra[qp, ans] == best

    _nns_stream(rec, index, q, n, c["nns_ops"], lambda p: p, exact)


# ---------------------------------------------------------------------------
# tree-serve


TREE = dict(n=400, max_weight=8, spd_n=120, spd_eps=0.5, paths=10_000, spd_paths=200,
            ft_sets=10, ft_per_set=50, ft_residual_sets=1, nns_ops=2000,
            hop_n=1 << 20, hop_paths=10_000, hop_batch=50_000,
            ft_hop_n=512, ft_hop_budgets=(2, 4), ft_hop_sets=4, ft_hop_checks=200,
            probe_n=1 << 62)


def _random_tree(rng, n, max_weight):
    parents = [int(rng.integers(0, v)) for v in range(1, n)]
    weights = rng.integers(1, max_weight + 1, size=n - 1)
    edges = [(p, v, float(w)) for p, v, w in zip(parents, range(1, n), weights)]
    return metrics.WeightedGraph(n, edges)


def _boundary_pairs(n):
    """(1, 2^k), (2^k - 1, 2^k), (2^k, 2^k + 1) for every 2^k < n: the
    pairs whose xor sits at a power-of-two boundary."""
    lo, hi = [], []
    k = 1
    while (1 << k) + 1 <= n:
        for a, b in ((1, 1 << k), ((1 << k) - 1, 1 << k), (1 << k, (1 << k) + 1)):
            lo.append(a)
            hi.append(b)
        k += 1
    return np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)


def _check_hop_answers(rec, name, hop, lo, hi, answers):
    """Two-hop contract: lo <= l <= hi with l in E_lo and l in E_hi."""
    for i, j, l in zip(lo.tolist(), hi.tolist(), answers):
        rec.check(name, i <= l <= j and hop.in_edge_set(i, l) and hop.in_edge_set(j, l))


def tree_round(rec, workdir, seed, r):
    c = TREE
    gen = _rng(seed, r, 1)
    graph_path = os.path.join(workdir, "tree.txt")
    with rec.phase("setup"):
        tree = _random_tree(gen, c["n"], c["max_weight"])
        fileio.write_graph(graph_path, tree)
        g = fileio.read_graph(graph_path)
        metric = metrics.shortest_path_metric(g)
    rec.count("fileio.bytes", os.path.getsize(graph_path))
    mat = metric.matrix()
    n = g.n
    fam_path = os.path.join(workdir, "family.json")
    subtree = metrics.WeightedGraph(c["spd_n"], [e for e in g.edges if e[1] < c["spd_n"]])
    with rec.phase("build"):
        built = orderings.build_rooted_lso_tree(g)
        fam = _family_roundtrip(rec, built, fam_path)
        sp = spanners.pr_spanner_from_rooted(fam, metric)
        ft = spanners.ft_spanner_from_family(fam, metric, FAULTS)
        labels = nns.assign_rooted_labels(fam, metric)
        index = nns.RootedNns(fam, labels)
        spd = spanners.spd_spanner(spanners.tree_heavy_path_spd(subtree), c["spd_eps"])
        hop = hopsets.TwoHopPathSpanner(c["hop_n"])
        ft_hops = [hopsets.FtTwoHopPathSpanner(c["ft_hop_n"], f) for f in c["ft_hop_budgets"]]
        probe = hopsets.TwoHopPathSpanner(c["probe_n"])
    with rec.phase("verify"):
        rep = orderings.verify_family(fam, metric)
    with rec.checking():
        rec.check("fileio.family_roundtrip", _same_family(built, fam))
        _check_verifications(rec, [("rooted.verify", rep)])
        rec.count("spanners.edges", sp.num_edges() + ft.num_edges() + spd.num_edges())
        rec.count("hopsets.ft_edges", sum(h.num_edges() for h in ft_hops))
        _label_counters(rec, labels)

    q = _rng(seed, r, 2)
    pairs = _pairs(q, n, c["paths"])
    results = rec.timed_calls("path", sp.query, pairs)
    weights = rec.timed_batch(n * (n - 1) // 2, sp.all_pairs_weights)
    spd_pairs = _pairs(q, c["spd_n"], c["spd_paths"])
    spd_results = rec.timed_calls("spd", spd.query, spd_pairs)
    with rec.checking():
        _check_paths(rec, "rooted_spanner.path", sp, mat, pairs, results)
        _check_weights(rec, "rooted_spanner.scalar_vs_batch", pairs, results, weights)
        _check_paths(rec, "spd.path", spd, mat, spd_pairs, spd_results)
    _ft_stream(rec, "rooted_ft", ft, mat, q, c["ft_sets"], c["ft_per_set"], c["ft_residual_sets"])
    _nns_stream(rec, index, q, n, c["nns_ops"], lambda p: labels[p], _rho_bound(rec, mat, fam.rho))

    # two-hop path structure: scalar stream, then query_batch on the same pairs
    a = q.integers(1, c["hop_n"] + 1, size=c["hop_batch"])
    b = q.integers(1, c["hop_n"] + 1, size=c["hop_batch"])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    scalar = rec.timed_calls("hop", hop.query, list(zip(lo[: c["hop_paths"]].tolist(),
                                                          hi[: c["hop_paths"]].tolist())))
    batch = rec.timed_batch(lo.size, hop.query_batch, lo, hi)
    plo, phi = _boundary_pairs(c["probe_n"])
    probe_batch = rec.timed_batch(plo.size, probe.query_batch, plo, phi)
    with rec.checking():
        _check_hop_answers(rec, "two_hop.path", hop, lo[: c["hop_paths"]], hi[: c["hop_paths"]],
                           scalar)
        for s, bt in zip(scalar, batch[: len(scalar)].tolist()):
            rec.check("two_hop.scalar_vs_batch", s == bt)
        # Boundary pairs at n = 2^62.  query_batch takes floor(log2(xor)) in
        # float64, which is wrong once xor >= 2^49 (known defect); the
        # mismatches are counted and reported by name, not as failures.
        probe_scalar = [probe.query(i, j) for i, j in zip(plo.tolist(), phi.tolist())]
        mismatches = sum(s != bt for s, bt in zip(probe_scalar, probe_batch.tolist()))
        rec.known_defects["two_hop.query_batch_boundary_pairs_n2^62"] += mismatches
        rec.count("hopsets.batch_mismatches", mismatches)

    # FT two-hop structures under fault sets at the budget, through query_batch
    m = c["ft_hop_n"]
    iu, iv = np.triu_indices(m, k=1)
    for ft_hop in ft_hops:
        for _ in range(c["ft_hop_sets"]):
            faults = q.choice(np.arange(1, m + 1), size=ft_hop.f, replace=False)
            mask = np.zeros(ft_hop.n_padded + 1, dtype=bool)
            mask[faults] = True
            keep = ~(mask[iu + 1] | mask[iv + 1])
            i_arr, j_arr = iu[keep] + 1, iv[keep] + 1
            mids = rec.timed_batch(i_arr.size, ft_hop.query_batch, i_arr, j_arr, mask)
            with rec.checking():
                rec.check("ft_two_hop.batch_in_range",
                          bool(np.all((mids >= i_arr) & (mids <= j_arr) & ~mask[mids])))
                fset = faults.tolist()
                for t in q.choice(i_arr.size, size=c["ft_hop_checks"], replace=False).tolist():
                    i, j, l = int(i_arr[t]), int(j_arr[t]), int(mids[t])
                    edges_ok = (ft_hop.has_edge(i, j) if l == i
                                else ft_hop.has_edge(i, l) and ft_hop.has_edge(l, j))
                    rec.check("ft_two_hop.scalar_vs_batch",
                              ft_hop.query(i, j, fset) == l and edges_ok)


WORKLOADS = {
    "euclid-l2": euclid_round,
    "doubling-clusters": doubling_round,
    "tree-serve": tree_round,
}
