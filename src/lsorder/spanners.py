"""Path-reporting low-hop spanners, fault-tolerant variants, and spanner
oracles built from ordering families; plus the Thorup-Zwick and sparse-cover
constructions for general metrics and the SPD/landmark spanner for graphs.

Every spanner stores true metric edge weights and answers queries with an
explicit path whose edges are present in the edge set.  The two ordering
spanners (plain and fault-tolerant, classic or triangle family) keep the
family as an (m, n) stack of permutations plus the (m, n) table of each
point's position in each ordering; a pair query is one vectorized midpoint
step over all m orderings, and the all-pairs checks read the same table
(two_hop_rows, one ordering at a time).  An FT query hands the FT hop
structure the positions of the fault set in each ordering, ascending per
ordering, so one spanner keeps no per-query state.  The FT residual check
keeps, from its first call on, a fault-free candidate table of every pair's
midpoint in every ordering (4*m*P + 16*P bytes over the P = n(n-1)/2 pairs;
a ValueError above TABLE_CAP_BYTES), and a call recomputes only the rows
whose midpoint is a fault.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .hopsets import (
    FourHopPathSpanner,
    FtTwoHopPathSpanner,
    ThreeHopPathSpanner,
    TwoHopPathSpanner,
)
from .metrics import (
    WeightedGraph,
    components,
    dijkstra,
    graph_distances,
    min_max_pairwise,
    subtree_sizes,
    tree_centroid,
)
from .orderings import CLASSIC, ROOTED, TRIANGLE, build_rooted_lso_tree, via_root_weights


class PathReportingSpanner:
    """Weighted edge set plus a per-construction query structure."""

    def __init__(self, n, stretch, hops):
        self.n = n
        self.stretch = float(stretch)
        self.hops = int(hops)
        self.edges = {}

    def add_edge(self, u, v, w):
        if u == v:
            return
        key = (u, v) if u < v else (v, u)
        if key not in self.edges:
            self.edges[key] = float(w)

    def add_ordering_edges(self, perms, a, b, mat):
        """add_edge(perm[a_k], perm[b_k], mat[perm[a_k], perm[b_k]]) for each
        ordering in turn and each k in order (0-indexed positions a, b), one
        ordering's arrays at a time; the first weight seen for an edge wins."""
        seen = np.zeros((self.n, self.n), dtype=bool)
        for key in self.edges:
            seen[key] = True
        for perm in perms:
            u, v = perm[a], perm[b]
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            _, first = np.unique(lo * self.n + hi, return_index=True)
            first.sort()
            first = first[(lo[first] != hi[first]) & ~seen[lo[first], hi[first]]]
            seen[lo[first], hi[first]] = True
            keys = zip(lo[first].tolist(), hi[first].tolist())
            self.edges.update(zip(keys, mat[u[first], v[first]].tolist()))

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def num_edges(self):
        return len(self.edges)

    def check_path(self, path):
        for a, b in zip(path, path[1:]):
            if not self.has_edge(a, b):
                raise AssertionError(f"reported edge ({a},{b}) missing from the spanner")
        return True


def stack_orderings(fam, n):
    """(perms, table): the family's orderings as an (m, n) int64 array and
    the (m, n) int64 table of 1-indexed positions, table[k, perms[k, i]] = i + 1."""
    perms = np.asarray([o.perm for o in fam.orderings], dtype=np.int64).reshape(-1, n)
    table = np.empty_like(perms)
    table[np.arange(len(perms))[:, None], perms] = np.arange(1, n + 1)
    return perms, table


def two_hop_rows(perms, table, mat, a, b, midpoint):
    """Per ordering k, for the pairs (a[r], b[r]) of distinct points: z, the
    point at midpoint(lo, hi) of their positions lo < hi in ordering k, and
    the 2-hop weight mat[a, z] + mat[z, b]; one ordering's arrays at a time."""
    for perm, pos in zip(perms, table):
        pu, pv = pos[a], pos[b]
        z = perm[midpoint(np.minimum(pu, pv), np.maximum(pu, pv)) - 1]
        yield z, mat[a, z] + mat[z, b]


def lightest_two_hop(perms, mat, u, v, mids):
    """Lightest u-z-v path over the orderings, z = perms[k, mids[k] - 1]: the
    path (z dropped when it is an endpoint) and its weight.  Ties go to the
    first ordering; the zero diagonal makes mat[u, z] + mat[z, v] the
    one-edge weight when z is an endpoint."""
    z = perms[np.arange(len(perms)), mids - 1]
    w = mat[u, z] + mat[z, v]
    best = int(np.argmin(w))
    zb = int(z[best])
    return [u] + ([zb] if zb not in (u, v) else []) + [v], float(w[best])


def _check_ids(n, ids):
    if ids and not 0 <= min(ids) <= max(ids) < n:
        raise ValueError(f"point ids {sorted(ids)} out of range 0..{n - 1}")


class OrderingHopSpanner(PathReportingSpanner):
    """2-hop spanner from a classic or triangle family: one hop structure per
    ordering; a query takes the midpoint of the pair's positions in every
    ordering at once, through the position table, and returns the lightest
    path."""

    def __init__(self, fam, metric, stretch):
        super().__init__(metric.n, stretch, 2)
        self.mat = metric.matrix()
        self.hop = TwoHopPathSpanner(metric.n)
        self.perms, self.table = stack_orderings(fam, self.n)
        mids_of = [self.hop.edges_of(pos) for pos in range(1, self.n + 1)]
        pos0 = np.asarray([i for i, mids in enumerate(mids_of) for _ in mids], dtype=np.int64)
        mid0 = np.asarray([l - 1 for mids in mids_of for l in mids], dtype=np.int64)
        self.add_ordering_edges(self.perms, pos0, mid0, self.mat)

    def query(self, u, v):
        _check_ids(self.n, (u, v))
        if u == v:
            return [u], 0.0
        pu, pv = self.table[:, u], self.table[:, v]
        mids = self.hop.query_batch(np.minimum(pu, pv), np.maximum(pu, pv))
        return lightest_two_hop(self.perms, self.mat, u, v, mids)

    def all_pairs_weights(self):
        """Vectorized min-over-orderings 2-hop weights for every pair."""
        n = self.n
        iu = np.triu_indices(n, k=1)
        best = np.full(iu[0].shape, np.inf)
        for _, w in two_hop_rows(self.perms, self.table, self.mat, *iu, self.hop.query_batch):
            np.minimum(best, w, out=best)
        out = np.zeros((n, n))
        out[iu] = best
        return out + out.T


def pr_spanner_from_classic(fam, metric):
    if fam.kind != CLASSIC:
        raise ValueError("classic family required")
    return OrderingHopSpanner(fam, metric, stretch=1 + 2 * fam.rho)


def pr_spanner_from_triangle(fam, metric):
    if fam.kind != TRIANGLE:
        raise ValueError("triangle family required")
    return OrderingHopSpanner(fam, metric, stretch=2 * fam.rho)


class RootedHopSpanner(PathReportingSpanner):
    """2-hop spanner from a rooted family: every member connects to its
    ordering's root; queries go through the best shared root."""

    def __init__(self, fam, metric):
        if fam.kind != ROOTED:
            raise ValueError("rooted family required")
        super().__init__(metric.n, fam.rho, 2)
        self.fam = fam
        self.mat = metric.matrix()
        self.membership = fam.membership()
        for o in fam.orderings:
            for pid in o.perm:
                self.add_edge(pid, o.root, self.mat[pid, o.root])

    def query(self, u, v):
        _check_ids(self.n, (u, v))
        if u == v:
            return [u], 0.0
        best = None
        for k in self.membership.get(u, []):
            o = self.fam.orderings[k]
            if v not in o.pos:
                continue
            r = o.root
            path = [u] + ([r] if r not in (u, v) else []) + [v]
            w = self.mat[u, r] + self.mat[r, v]  # the zero diagonal covers r in (u, v)
            if best is None or w < best[1]:
                best = (path, w)
        if best is None:
            raise LookupError(f"pair ({u},{v}) shares no ordering")
        return best

    def all_pairs_weights(self):
        best = via_root_weights(self.fam, self.mat)
        np.fill_diagonal(best, 0.0)
        return best


def pr_spanner_from_rooted(fam, metric):
    return RootedHopSpanner(fam, metric)


# ---------------------------------------------------------------------------
# SPD / landmark spanner


@dataclass
class SpdNode:
    component: list
    path: list
    children: list = field(default_factory=list)


@dataclass
class SpdDecomposition:
    graph: WeightedGraph
    root: SpdNode

    def depth(self):
        def rec(node):
            return 1 + max((rec(c) for c in node.children), default=0)

        return rec(self.root)

    def validate(self):
        """Path is a shortest path of its component; children are exactly the
        components left after removing it."""
        adj = self.graph.adjacency()

        def rec(node, level):
            comp = set(node.component)
            if not set(node.path) <= comp:
                raise ValueError(f"SPD level {level}: path leaves its component")
            weights = {}
            for u, v, w in self.graph.edges:
                if u in comp and v in comp:
                    weights[(u, v)] = float(w)
                    weights[(v, u)] = float(w)
            total = 0.0
            for a, b in zip(node.path, node.path[1:]):
                if (a, b) not in weights:
                    raise ValueError(f"SPD level {level}: path edge ({a},{b}) missing")
                total += weights[(a, b)]
            if len(node.path) > 1:
                dist = dijkstra(adj, node.path[0], within=comp)
                if not math.isclose(dist[node.path[-1]], total, rel_tol=1e-9):
                    raise ValueError(
                        f"SPD level {level}: removed path is not a shortest path"
                    )
            remaining = comp - set(node.path)
            comps = components(adj, remaining)
            declared = [frozenset(c.component) for c in node.children]
            if sorted(map(sorted, comps)) != sorted(map(sorted, declared)):
                raise ValueError(f"SPD level {level}: children do not match components")
            for child in node.children:
                rec(child, level + 1)

        rec(self.root, 0)


def tree_heavy_path_spd(g):
    """SPD of a tree: heavy path from the centroid; light components halve."""
    if not g.is_tree():
        raise ValueError("heavy-path SPD needs a tree")
    adj = g.adjacency()

    def build(comp):
        comp = set(comp)
        centroid = tree_centroid(adj, comp)
        parent, size = subtree_sizes(adj, comp, centroid)

        def children(u):
            """Subtrees below u, heaviest first (ties: lowest id)."""
            kids = [v for v, _ in adj[u] if v in comp and parent[v] == u]
            return sorted(kids, key=lambda v: (-size[v], v))

        # heavy walk through the centroid in its two largest directions,
        # so hanging components keep the <= n/2 size guarantee
        def walk(start):
            out = [start]
            while kids := children(out[-1]):
                out.append(kids[0])
            return out

        top = children(centroid)
        if not top:
            path = [centroid]
        elif len(top) == 1:
            path = [centroid] + walk(top[0])
        else:
            path = walk(top[0])[::-1] + [centroid] + walk(top[1])
        node = SpdNode(component=sorted(comp), path=path)
        for sub in components(adj, comp - set(path)):
            node.children.append(build(sub))
        return node

    return SpdDecomposition(graph=g, root=build(range(g.n)))


def treewidth_bag_spd(g, decomp):
    """SPD with singleton paths: balanced-bag vertices removed one at a time,
    recursing into the true graph components after every removal."""
    decomp.validate(g)
    adj_g = g.adjacency()
    adj_b = decomp.bag_adjacency()
    bagsets = [set(b) for b in decomp.bags]
    from .orderings import _balanced_bag

    def build(comp, pending):
        comp_set = set(comp)
        pending = [v for v in pending if v in comp_set]
        if not pending:
            if len(comp_set) == 1:
                only = sorted(comp_set)
                return SpdNode(component=only, path=only)
            touching = frozenset(
                b for b in range(decomp.num_bags) if bagsets[b] & comp_set
            )
            sep = _balanced_bag(touching, adj_b)
            pending = sorted(bagsets[sep] & comp_set) or [min(comp_set)]
        x = pending[0]
        node = SpdNode(component=sorted(comp_set), path=[x])
        for child in components(adj_g, comp_set - {x}):
            node.children.append(build(child, pending[1:]))
        return node

    return SpdDecomposition(graph=g, root=build(range(g.n), []))


class SpdSpanner(PathReportingSpanner):
    """Per level: landmarks on the removed path, an auxiliary tree with leaf
    copies, and a 2-hop tree spanner via centroid orderings."""

    def __init__(self, spd, eps):
        g = spd.graph
        super().__init__(g.n, 1 + eps, 2)
        if not (0 < eps < 1):
            raise ValueError("eps must be in (0,1)")
        spd.validate()
        self.eps = eps
        self.mat = graph_distances(g)
        self.adj = g.adjacency()
        self.levels = []  # per node: dict with landmarks and tree structures
        self._build_node(spd.root)

    def _build_node(self, node):
        comp = set(node.component)
        path = node.path
        # distances within the component, from each path vertex
        to_path = [dijkstra(self.adj, x, within=comp) for x in path]
        cum = [0.0]
        for i in range(len(path) - 1):
            cum.append(cum[-1] + to_path[i][path[i + 1]])
        landmarks = {}
        cap = max(1, int(math.ceil(2.0 / self.eps))) + 2
        for v in node.component:
            proj_idx = min(range(len(path)), key=lambda i: (to_path[i][v], i))
            dvp = to_path[proj_idx][v]
            picks = {0, len(path) - 1, proj_idx}
            if dvp > 0:
                step = self.eps / 4.0 * dvp
                for direction in (-1, 1):
                    for j in range(cap):
                        offset = step * (1 + self.eps / 2.0) ** j
                        target = cum[proj_idx] + direction * offset
                        if target < 0 or target > cum[-1]:
                            break
                        # path index whose cumulative length is nearest target
                        idx = bisect_left(cum, target)
                        if idx and target - cum[idx - 1] <= cum[idx] - target:
                            idx -= 1
                        picks.add(idx)
            landmarks[v] = sorted(picks)
        # auxiliary tree: path spine + one leaf copy per (v, landmark)
        tree_edges = []
        for a in range(len(path) - 1):
            w = cum[a + 1] - cum[a]
            tree_edges.append((a, a + 1, w if w > 0 else 1e-12))
        orig = dict(enumerate(path))
        copies = {}
        for v in node.component:
            for i in landmarks[v]:
                cid = len(orig)
                copies[(v, i)] = cid
                orig[cid] = v
                w = to_path[i][v]
                tree_edges.append((cid, i, w if w > 0 else 1e-12))
        fam = build_rooted_lso_tree(WeightedGraph(len(orig), tree_edges))
        for o in fam.orderings:
            r = orig[o.root]
            for member in o.perm:
                mv = orig[member]
                if mv != r:
                    self.add_edge(mv, r, self.mat[mv, r])
        self.levels.append(
            {
                "comp": comp,
                "landmarks": landmarks,
                "copies": copies,
                "fam": fam,
                "orig": orig,
                "membership": fam.membership(),
            }
        )
        for child in node.children:
            self._build_node(child)

    def query(self, u, v):
        """Lightest 2-hop path over all levels containing both endpoints."""
        if u == v:
            return [u], 0.0
        best = None
        candidates = 0
        for level in self.levels:
            if u not in level["comp"] or v not in level["comp"]:
                continue
            lu = level["landmarks"][u]
            lv = level["landmarks"][v]
            merged = sorted(
                [(i, "u") for i in lu] + [(i, "v") for i in lv], key=lambda t: t[0]
            )
            pairs = set()
            for (ia, sa), (ib, sb) in zip(merged, merged[1:]):
                if sa != sb:
                    pairs.add((ia, ib) if sa == "u" else (ib, ia))
            for iu_, iv_ in pairs:
                candidates += 1
                cu = level["copies"][(u, iu_)]
                cv = level["copies"][(v, iv_)]
                cand = self._tree_two_hop(level, cu, cv, u, v)
                if cand is not None and (best is None or cand[1] < best[1]):
                    best = cand
        if best is None:
            raise LookupError(f"no level serves pair ({u},{v})")
        self.last_candidates = candidates
        return best

    def _tree_two_hop(self, level, cu, cv, u, v):
        fam = level["fam"]
        best = None
        for k in level["membership"].get(cu, []):
            o = fam.orderings[k]
            if cv not in o.pos:
                continue
            z = level["orig"][o.root]
            path = [u] + ([z] if z not in (u, v) else []) + [v]
            w = sum(self.mat[a, b] for a, b in zip(path, path[1:]))
            if best is None or w < best[1]:
                best = (path, w)
        return best


def spd_spanner(spd, eps):
    return SpdSpanner(spd, eps)


# ---------------------------------------------------------------------------
# Thorup-Zwick


@dataclass
class TzOracle:
    levels: list
    pivots: dict  # (i, v) -> (pivot, distance)
    bunches: dict  # v -> {w: distance}


class TzSpanner(PathReportingSpanner):
    def __init__(self, metric, k, seed=0, max_attempts=64):
        super().__init__(metric.n, 2 * k - 1, 2)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.mat = metric.matrix()
        n = metric.n
        budget = 4.0 * k * n ** (1.0 + 1.0 / k)
        oracle = None
        for attempt in range(max_attempts):
            rng = seeds.rng_for(seed, "tz", attempt)
            levels = [list(range(n))]
            ok = True
            for i in range(1, k):
                prev = levels[-1]
                keep = [v for v in prev if rng.random() < n ** (-1.0 / k)]
                if not keep:
                    ok = False
                    break
                levels.append(keep)
            if not ok:
                continue
            levels.append([])  # A_k = empty
            pivots = {}
            bunches = {v: {} for v in range(n)}
            total = 0
            for v in range(n):
                d_next = np.inf
                for i in range(k - 1, -1, -1):
                    arr = levels[i]
                    dists = self.mat[v, arr]
                    best = int(np.argmin(dists))
                    pivots[(i, v)] = (arr[best], float(dists[best]))
                    members = [
                        (int(w), float(dw))
                        for w, dw in zip(arr, dists)
                        if dw < d_next
                    ]
                    for w, dw in members:
                        bunches[v][w] = dw
                    total += len(members)
                    d_next = pivots[(i, v)][1]
            if total <= budget:
                oracle = TzOracle(levels=levels, pivots=pivots, bunches=bunches)
                self.attempts = attempt + 1
                break
        if oracle is None:
            raise RuntimeError("TZ sampling failed to meet the bunch-size budget")
        self.oracle = oracle
        self.total_bunch = sum(len(b) for b in oracle.bunches.values())
        for v in range(n):
            for w, dw in oracle.bunches[v].items():
                self.add_edge(v, w, dw)
            for i in range(k):
                p, dp = oracle.pivots[(i, v)]
                self.add_edge(v, p, dp)

    def query(self, u, v):
        """The classic alternating pivot walk: (2-hop path, weight).  The walk's
        iteration count is left in last_iters."""
        if u == v:
            self.last_iters = 0
            return [u], 0.0
        w = u
        i = 0
        a, b = u, v
        iters = 0
        while w not in self.oracle.bunches[b]:
            iters += 1
            i += 1
            a, b = b, a
            w = self.oracle.pivots[(i, a)][0]
        path = [u] + ([w] if w not in (u, v) else []) + [v]
        weight = sum(self.mat[x, y] for x, y in zip(path, path[1:]))
        self.last_iters = iters
        return path, weight


def tz_spanner(metric, k, seed=0):
    return TzSpanner(metric, k, seed)


# ---------------------------------------------------------------------------
# sparse cover spanner (region growing over distance scales)


@dataclass
class SparseCoverScale:
    delta: float
    clusters: list  # list of (center, member list)
    home: dict  # point -> cluster index whose kernel claimed it


def build_sparse_cover_scale(mat, delta, k):
    """Region growing: kernels expand by 2*delta until the ball stops growing
    by the n^(1/k) factor; cluster radius stays below (2k-1)*delta."""
    n = mat.shape[0]
    factor = n ** (1.0 / k)
    unprocessed = set(range(n))
    clusters = []
    home = {}
    while unprocessed:
        x0 = min(unprocessed)
        row = mat[x0]
        j = 0
        while j < k - 1:
            inner = int(np.sum(row <= (2 * j + 1) * delta))
            outer = int(np.sum(row <= (2 * j + 3) * delta))
            if outer <= factor * max(inner, 1):
                break
            j += 1
        radius = (2 * j + 1) * delta
        members = np.nonzero(row <= radius)[0]
        kernel_radius = (2 * j - 1) * delta if j >= 1 else 0.0
        kernel = np.nonzero(row <= kernel_radius)[0] if j >= 1 else np.asarray([x0])
        idx = len(clusters)
        clusters.append((x0, members.tolist()))
        for p in kernel:
            p = int(p)
            if p in unprocessed:
                home[p] = idx
                unprocessed.discard(p)
    return SparseCoverScale(delta=float(delta), clusters=clusters, home=home)


class SparseCoverSpanner(PathReportingSpanner):
    """Per-scale sparse covers; queries scan the estimator's scale window."""

    MAX_SCALES = 64

    def __init__(self, metric, k, eps, estimator):
        super().__init__(metric.n, (1 + eps) * (4 * k - 2), 2)
        if k < 1:
            raise ValueError("k must be >= 1")
        if not (0 < eps < 1):
            raise ValueError("eps must be in (0,1)")
        self.k = k
        self.eps = eps
        self.estimator = estimator
        self.mat = metric.matrix()
        dmin, dmax = min_max_pairwise(metric)
        self.scale0 = dmin
        num_scales = int(math.ceil(math.log(dmax / dmin) / math.log(1 + eps))) + 2
        if num_scales > self.MAX_SCALES * 1_000_000:
            raise ValueError("aspect ratio too large: scale ladder over the guard")
        self.scales = []
        for i in range(num_scales):
            delta = dmin * (1 + eps) ** i
            scale = build_sparse_cover_scale(self.mat, delta, k)
            self.scales.append(scale)
            for center, members in scale.clusters:
                for p in members:
                    self.add_edge(p, center, self.mat[p, center])

    def _scale_index(self, value):
        if value <= self.scale0:
            return 0
        return int(math.floor(math.log(value / self.scale0) / math.log(1 + self.eps)))

    def query(self, u, v):
        """Lightest path through a home cluster over the estimator's scale
        window: (path, weight).  The number of scales scanned is left in
        last_scanned."""
        if u == v:
            self.last_scanned = 0
            return [u], 0.0
        est = self.estimator(u, v)
        lo = self._scale_index(est / (2 * self.k - 1))
        hi = self._scale_index(est) + 2
        window = range(max(0, lo), min(hi, len(self.scales) - 1) + 1)
        self.last_scanned = len(window)
        best = None
        for i in window:
            scale = self.scales[i]
            cidx = scale.home.get(u)
            if cidx is None:
                continue
            center, members = scale.clusters[cidx]
            if v in members or v == center:
                path = [u] + ([center] if center not in (u, v) else []) + [v]
                w = sum(self.mat[a, b] for a, b in zip(path, path[1:]))
                if best is None or w < best[1]:
                    best = (path, w)
        if best is None:
            raise RuntimeError(
                f"estimator fault: no scanned scale serves pair ({u},{v})"
            )
        return best

    def verify_padding(self):
        """Cover padding: every Delta-ball around a point sits in its home
        cluster; radius bound (2k-1)*Delta per cluster."""
        for scale in self.scales:
            for center, members in scale.clusters:
                row = self.mat[center, members]
                if np.any(row > (2 * self.k - 1) * scale.delta * (1 + 1e-9)):
                    return False
            for p in range(self.n):
                cidx = scale.home.get(p)
                if cidx is None:
                    return False
                members = set(scale.clusters[cidx][1])
                ball = np.nonzero(self.mat[p] <= scale.delta)[0]
                if not set(ball.tolist()) <= members:
                    return False
        return True


def sparse_cover_spanner(metric, k, eps, estimator):
    return SparseCoverSpanner(metric, k, eps, estimator)


# ---------------------------------------------------------------------------
# fault-tolerant spanners from families

# FtOrderingSpanner.residual_all_pairs_weights: the largest fault-free
# candidate table it builds, and the hit rows it recomputes per query_batch
# call (each row peaks at about 75 bytes of temporaries there, by tracemalloc)
TABLE_CAP_BYTES = 1 << 30
RECOMPUTE_ROWS = 1 << 11


class FtOrderingSpanner(PathReportingSpanner):
    """Classic/triangle: per-ordering FT hop structures, queried over all
    orderings at once through the position table, each ordering reading the
    ascending positions of the faults in it; rooted: edges from the first
    f+1 points of each ordering."""

    def __init__(self, fam, metric, f):
        stretch = {
            CLASSIC: 1 + 2 * fam.rho,
            TRIANGLE: 2 * fam.rho,
            ROOTED: 2 * fam.rho,
        }[fam.kind]
        super().__init__(metric.n, stretch, 2)
        if f < 0:
            raise ValueError("fault budget must be >= 0")
        self.fam = fam
        self.kind = fam.kind
        self.mat = metric.matrix()
        self.membership = fam.membership()
        if fam.kind == ROOTED:
            self.f = f
            for o in fam.orderings:
                heads = o.perm[: f + 1]
                for z in heads:
                    for pid in o.perm:
                        if pid != z:
                            self.add_edge(pid, z, self.mat[pid, z])
        else:
            self.ft = FtTwoHopPathSpanner(metric.n, f)
            self.f = self.ft.f
            self.perms, self.table = stack_orderings(fam, self.n)
            ends = np.asarray(list(self.ft.edges), dtype=np.int64).reshape(-1, 2) - 1
            self.add_ordering_edges(self.perms, ends[:, 0], ends[:, 1], self.mat)
            self.candidates = None  # residual_all_pairs_weights builds it

    def query(self, u, v, faults=()):
        F = set(faults)
        if len(F) > self.f:
            raise ValueError(f"fault set exceeds budget {self.f}")
        _check_ids(self.n, F | {u, v})
        if u in F or v in F:
            raise ValueError("query endpoints must survive")
        if u == v:
            return [u], 0.0
        if self.kind == ROOTED:
            best = None
            for k in self.membership.get(u, []):
                o = self.fam.orderings[k]
                if v not in o.pos:
                    continue
                z = next((p for p in o.perm[: self.f + 1] if p not in F), None)
                if z is None:
                    continue
                path = [u] + ([z] if z not in (u, v) else []) + [v]
                w = self.mat[u, z] + self.mat[z, v]
                if best is None or w < best[1]:
                    best = (path, w)
            if best is None:
                raise LookupError(f"no surviving root serves ({u},{v})")
            return best
        pu, pv = self.table[:, u], self.table[:, v]
        mids = self.ft.query_batch(np.minimum(pu, pv), np.maximum(pu, pv), self._fault_positions(F))
        return lightest_two_hop(self.perms, self.mat, u, v, mids)

    def _fault_positions(self, F):
        """(m, |F|): the positions of F in each ordering, ascending per row."""
        positions = self.table.take(list(F), axis=1)
        positions.sort()
        return positions

    def residual_all_pairs_weights(self, faults):
        """(alive, best): the surviving points and, over their pairs in
        np.triu_indices order, the min-over-orderings 2-hop weight under the
        faults F.

        Classic/triangle: the first call builds the fault-free candidate
        table (_candidate_table: every pair's midpoint in every ordering, its
        min weight and the first ordering attaining it; 4*m*P + 16*P bytes
        for P = n(n-1)/2 pairs, ValueError above TABLE_CAP_BYTES).  A call
        recomputes only the (ordering, pair) rows whose fault-free midpoint
        is in F, since every other row keeps its midpoint; their count is
        left in last_recomputed.  The min of the same float sums is exact,
        so the weights equal a full recomputation bit for bit."""
        F = set(faults)
        if len(F) > self.f:
            raise ValueError(f"fault set exceeds budget {self.f}")
        _check_ids(self.n, F)
        alive = np.asarray([p for p in range(self.n) if p not in F], dtype=np.int64)
        if self.kind == ROOTED:
            iu, iv = np.triu_indices(alive.size, k=1)
            a, b = alive[iu], alive[iv]
            best = np.full(a.shape, np.inf)
            for o in self.fam.orderings:
                member_mask = np.zeros(self.n, dtype=bool)
                member_mask[o.perm] = True
                z = next((p for p in o.perm[: self.f + 1] if p not in F), None)
                if z is None:
                    continue
                inside = member_mask[a] & member_mask[b]
                w = self.mat[a, z] + self.mat[z, b]
                best = np.where(inside, np.minimum(best, w), best)
            return alive, best
        Z, best0, arg0 = self._candidate_table()
        a, b = np.triu_indices(self.n, k=1)
        dead = np.zeros(self.n, dtype=bool)
        dead[list(F)] = True
        keep = ~(dead[a] | dead[b])
        # hit rows: (ordering, surviving pair) whose midpoint is a fault
        hit = np.zeros(Z.shape, dtype=bool)
        for x in F:
            hit |= Z == x
        ks, ps = np.divmod(np.flatnonzero(hit), Z.shape[1])
        ks, ps = ks[keep[ps]], ps[keep[ps]]
        self.last_recomputed = int(ks.size)
        best = best0.copy()
        if ks.size:
            # pairs whose fault-free best row was hit: min over the rows left
            lost = ps[ks == arg0[ps]]
            zl = Z[:, lost]
            wl = self.mat[a[lost], zl]
            wl += self.mat[zl, b[lost]]
            wl[dead[zl]] = np.inf
            best[lost] = wl.min(axis=0)
        positions = self._fault_positions(F)
        for s in range(0, ks.size, RECOMPUTE_ROWS):
            k, p = ks[s : s + RECOMPUTE_ROWS], ps[s : s + RECOMPUTE_ROWS]
            pa, pb = a[p], b[p]
            pu, pv = self.table[k, pa], self.table[k, pb]
            l = self.ft.query_batch(np.minimum(pu, pv), np.maximum(pu, pv), positions, k)
            z = self.perms[k, l - 1]
            np.minimum.at(best, p, self.mat[pa, z] + self.mat[z, pb])
        return alive, best[keep]

    def _candidate_table(self):
        """The fault-free candidate table over the pairs np.triu_indices(n, 1),
        built on first use: Z, the (m, P) int32 midpoint point ids; best0,
        each pair's min weight over the orderings; arg0, the first ordering
        attaining it."""
        if self.candidates is None:
            m, n = self.perms.shape
            P = n * (n - 1) // 2
            need = 4 * m * P + 16 * P
            if need > TABLE_CAP_BYTES:
                raise ValueError(
                    f"FT candidate table for n={n}, tau={m} needs {need} bytes, "
                    f"over the {TABLE_CAP_BYTES}-byte cap"
                )
            a, b = np.triu_indices(n, k=1)
            Z = np.empty((m, P), dtype=np.int32)
            best0 = np.full(P, np.inf)
            arg0 = np.zeros(P, dtype=np.int64)
            rows = two_hop_rows(self.perms, self.table, self.mat, a, b, self.ft.query_batch)
            for k, (z, w) in enumerate(rows):
                Z[k] = z
                better = w < best0
                best0[better] = w[better]
                arg0[better] = k
            self.candidates = Z, best0, arg0
        return self.candidates


def ft_spanner_from_family(fam, metric, f):
    return FtOrderingSpanner(fam, metric, f)


# ---------------------------------------------------------------------------
# spanner oracles


class SpannerOracle:
    """Callable (terminals, L) -> weighted edge list, tracking weak sparsity."""

    def __init__(self, builder):
        self._builder = builder
        self.weak_sparsity = 0.0

    def __call__(self, terminals, L):
        terminals = sorted(set(terminals))
        if L <= 0:
            raise ValueError("L must be positive")
        edges = self._builder(terminals, L)
        weight = sum(w for _, _, w in edges)
        if terminals:
            self.weak_sparsity = max(self.weak_sparsity, weight / (len(terminals) * L))
        return edges


def spanner_oracle_classic(fam, metric):
    """Connect sigma-close terminal pairs of distance <= 2L; stretch 1+8*rho."""
    if fam.kind != CLASSIC:
        raise ValueError("classic family required")
    if fam.rho >= 0.25:
        raise ValueError("classic oracle needs rho < 1/4")
    mat = metric.matrix()

    def builder(terminals, L):
        tset = set(terminals)
        edges = {}
        for o in fam.orderings:
            chain = [p for p in o.perm if p in tset]
            for a, b in zip(chain, chain[1:]):
                d = mat[a, b]
                if d <= 2 * L:
                    key = (a, b) if a < b else (b, a)
                    edges[key] = float(d)
        return [(a, b, w) for (a, b), w in edges.items()]

    return SpannerOracle(builder)


def spanner_oracle_triangle(fam, metric, hops=2):
    """Per-ordering hop structures over the terminal sub-path, truncated at
    edge weight 2*rho*L; stretch hops*rho."""
    if fam.kind != TRIANGLE:
        raise ValueError("triangle family required")
    if hops not in (2, 3, 4):
        raise ValueError("hops must be 2, 3 or 4")
    mat = metric.matrix()
    hop_cls = {2: TwoHopPathSpanner, 3: ThreeHopPathSpanner, 4: FourHopPathSpanner}[hops]

    def builder(terminals, L):
        cap = 2 * fam.rho * L
        edges = {}
        m = len(terminals)
        if m < 2:
            return []
        for o in fam.orderings:
            chain = sorted(terminals, key=lambda p: o.pos[p])
            hop = hop_cls(m)
            if hops == 2:
                pair_iter = (
                    (i, l)
                    for i in range(1, m + 1)
                    for l in hop.edges_of(i)
                    if l != i
                )
            else:
                pair_iter = ((a, b) for a, b in hop.edges)
            for a, b in pair_iter:
                u, v = chain[a - 1], chain[b - 1]
                d = mat[u, v]
                if d <= cap:
                    key = (u, v) if u < v else (v, u)
                    edges[key] = float(d)
        return [(a, b, w) for (a, b), w in edges.items()]

    return SpannerOracle(builder)


def shortest_paths_on_edges(n, edges, sources):
    """Distances from each source over an explicit edge list (for oracle
    stretch checks); unreachable vertices stay at inf."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return {s: dijkstra(adj, s) for s in sources}
