"""Ordering families (classic / triangle / rooted), their brute-force
verifiers, and the combinatorial rooted builders for trees and treewidth
graphs.

The verifiers implement the defining window conditions literally over every
pair and are the correctness oracle for every construction in the package.
A pair passes when some ordering certifies it; the report records, per pair,
the best certified ratio (for violating pairs this is the exact minimum over
all orderings).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .metrics import components, dijkstra, graph_distances, tree_centroid

VERIFY_TOL = 1e-9

CLASSIC = "classic"
TRIANGLE = "triangle"
ROOTED = "rooted"


class Ordering:
    """Permutation over a subset of point ids; rooted orderings start at the
    root and are nondecreasing in distance to it."""

    def __init__(self, perm, root=None):
        self.perm = np.asarray(perm, dtype=np.int64).tolist()
        if len(set(self.perm)) != len(self.perm):
            raise ValueError("ordering contains repeated ids")
        self.root = None if root is None else int(root)
        if self.root is not None and (not self.perm or self.perm[0] != self.root):
            raise ValueError("rooted ordering must start at its root")


@dataclass
class OrderingFamily:
    """Orderings plus the one index every structure built on them reads:
    perms and table for a classic or triangle family, membership for a
    rooted one.  Each is built on first use and kept, so the orderings must
    not change after that."""

    kind: str
    orderings: list
    rho: float
    tau: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (CLASSIC, TRIANGLE, ROOTED):
            raise ValueError(f"unknown ordering family kind {self.kind!r}")
        if not self.tau:
            if self.kind == ROOTED:
                self.tau = max(map(len, self.membership.values()), default=0)
            else:
                self.tau = len(self.orderings)

    def require_points(self, n):
        """Raise unless every ordering holds only point ids 0..n-1 and, in a
        classic or triangle family, all n of them (ids are distinct by
        construction)."""
        covering = self.kind != ROOTED
        for idx, o in enumerate(self.orderings):
            if o.perm and (min(o.perm) < 0 or max(o.perm) >= n):
                bad = next(p for p in o.perm if not 0 <= p < n)
                raise ValueError(f"ordering {idx} holds point id {bad}, outside 0..{n - 1}")
            if covering and len(o.perm) != n:
                raise ValueError(
                    f"ordering {idx} covers {len(o.perm)} of {n} points; "
                    f"{self.kind} orderings must cover all points"
                )

    @cached_property
    def perms(self):
        """(m, n) int64: row k is ordering k of a classic or triangle family."""
        n = len(self.orderings[0].perm) if self.orderings else 0
        self.require_points(n)
        perms = np.empty((len(self.orderings), n), dtype=np.int64)
        perms[:] = [o.perm for o in self.orderings]
        return perms

    @cached_property
    def table(self):
        """(m, n) int64 1-indexed positions: table[k, perms[k, i]] = i + 1."""
        perms = self.perms
        table = np.empty_like(perms)
        table[np.arange(len(perms))[:, None], perms] = np.arange(1, perms.shape[1] + 1)
        return table

    @cached_property
    def membership(self):
        """point id -> the ascending ids of the orderings holding it."""
        out = {}
        for k, o in enumerate(self.orderings):
            for p in o.perm:
                out.setdefault(p, []).append(k)
        return out


@dataclass
class VerificationReport:
    kind: str
    rho: float
    pairs_checked: int
    violations: list
    max_observed_stretch: float

    @property
    def passed(self):
        return not self.violations

    def summary(self):
        return (
            f"{self.kind}: pairs={self.pairs_checked} rho={self.rho:.6g} "
            f"max_stretch={self.max_observed_stretch:.6g} "
            f"violations={len(self.violations)}"
        )


# Window cells per numpy step of verify_classic: a handful of float64
# temporaries of this many cells stay within a few MB.
CLASSIC_CHUNK_CELLS = 1 << 15


def _best_split(a, b):
    """Per column, the min over splits j of max(max a[:j], max b[j:]) (empty
    maxima 0), for (w, rows) arrays holding one window per column.  Zero
    cells padded after a window change nothing: a split past the window
    repeats the value of the split at its end.  The running maxima step
    over the w window slots, each step one numpy call across all rows."""
    w, rows = a.shape
    pref = np.zeros((w + 1, rows))
    suf = np.zeros((w + 1, rows))
    for j in range(w):
        np.maximum(pref[j], a[j], out=pref[j + 1])
        np.maximum(suf[w - j], b[w - 1 - j], out=suf[w - 1 - j])
    return np.maximum(pref, suf, out=pref).min(axis=0)


def _classic_ratios(padded, perms, table, ks, xs, ys):
    """Classic window ratio of each pair (xs[i], ys[i]) in ordering ks[i]:
    the smallest rho' such that the points strictly between them split into
    a prefix within rho'*d of one end and a suffix within rho'*d of the
    other, either way round, where d = d(x, y).  At d = 0 it is 0 if every
    window point coincides with x, else inf.

    padded is the (n, n + 1) distance matrix with a zero column n appended,
    read at the slots past a pair's window.  Pairs are taken in order of
    window length and chunked, so each numpy step is as wide as its longest
    window and holds a bounded number of cells.  The split is found in
    distance units and divided by d once: x -> x / d is monotone in
    floating point, so it commutes with max and min, and the ratio equals
    the max/min over the per-point quotients bit for bit."""
    n = perms.shape[1]
    ix, iy = table[ks, xs] - 1, table[ks, ys] - 1
    lo = np.minimum(ix, iy) + 1
    length = np.abs(ix - iy) - 1
    order = np.argsort(length, kind="stable")
    out = np.empty(len(ks))
    s = 0
    while s < order.size:
        widths = length[order[s : s + CLASSIC_CHUNK_CELLS]] + 1
        cells = np.arange(1, widths.size + 1) * widths
        rows = order[s : s + max(1, int(np.count_nonzero(cells <= CLASSIC_CHUNK_CELLS)))]
        s += rows.size
        slots = np.arange(length[rows[-1]])[:, None]
        window = perms.take(np.minimum(lo[rows] + slots, n - 1) + ks[rows] * n)  # (slots, pairs)
        window[slots >= length[rows]] = n
        x, y = xs[rows], ys[rows]
        to_x, to_y = padded.take(window + x * (n + 1)), padded.take(window + y * (n + 1))
        d = padded[x, y]
        with np.errstate(divide="ignore", invalid="ignore"):
            # footnote orientation freedom: either end may take the prefix
            ratio = np.minimum(_best_split(to_x, to_y), _best_split(to_y, to_x)) / d
        same = d == 0.0
        ratio[same] = np.where(to_x[:, same].max(axis=0, initial=0.0) > 0.0, math.inf, 0.0)
        out[rows] = ratio
    return out


def _hint_orderings(hint, xs, ys, m):
    """Per pair, the ordering the hint proposes to try first, or -1."""
    h = None if hint is None else hint(xs, ys)
    if h is None:
        return np.full(xs.shape, -1, dtype=np.int64)
    h = np.broadcast_to(np.asarray(h, dtype=np.int64), xs.shape)
    if h.size and h.max() >= m:
        raise ValueError(f"hint proposes ordering {int(h.max())}, but the family has tau = {m} orderings")
    return h


def verify_classic(fam, metric, hint=None):
    """Check Def-style classic windows for every pair, both orientations.

    hint(xs, ys) is called once with every pair x < y in np.triu_indices
    order and returns, per pair or as one value for all, the index of an
    ordering to try first (None or negative: no proposal).  A pair's
    reported ratio is the first certifying one in the scan -- the hinted
    ordering, then the others in index order -- else its min over all
    orderings, so the hint never changes which pairs pass.

    The scan runs one ordering at a time over the pairs not yet certified.
    """
    if fam.kind != CLASSIC:
        raise ValueError("verify_classic expects a classic family")
    n = metric.n
    fam.require_points(n)
    mat = metric.matrix()
    rho = fam.rho
    bound = rho * (1 + VERIFY_TOL)
    perms, table = fam.perms, fam.table
    m = len(perms)
    padded = np.zeros((n, n + 1))
    padded[:, :n] = mat
    xs, ys = np.triu_indices(n, k=1)
    first = _hint_orderings(hint, xs, ys, m)
    best = np.full(xs.size, math.inf)
    hinted = np.flatnonzero(first >= 0)
    best[hinted] = _classic_ratios(padded, perms, table, first[hinted], xs[hinted], ys[hinted])
    live = np.flatnonzero(best > bound)
    for k in range(m):
        if not live.size:
            break
        rows = live[first[live] != k]
        ratios = _classic_ratios(padded, perms, table, np.full(rows.size, k), xs[rows], ys[rows])
        best[rows] = np.minimum(best[rows], ratios)
        live = live[best[live] > bound]
    violations = [
        (int(xs[i]), int(ys[i]), float(best[i])) for i in np.flatnonzero(best > bound)
    ]
    max_stretch = float(np.minimum(best, 1e300).max(initial=0.0))
    return VerificationReport(CLASSIC, rho, int(xs.size), violations, max_stretch)


def window_diameter_table(perm, mat):
    """D[i, j] = max pairwise distance among positions i..j of perm (zero on
    and below the diagonal).  On the ordering-frame submatrix with its lower
    triangle zeroed, a prefix max along each row gives
    R[a, j] = max over a < b <= j of d(a, b), and a suffix max down each
    column then gives D[i, j] = max over a >= i of R[a, j]."""
    perm = np.asarray(perm, dtype=np.int64)
    D = mat.take(perm, axis=0).take(perm, axis=1)
    np.copyto(D, 0.0, where=np.tri(len(perm), dtype=bool))
    np.maximum.accumulate(D, axis=1, out=D)
    np.maximum.accumulate(D[::-1], axis=0, out=D[::-1])
    return D


def _report_from_best(kind, rho, best, mat):
    """Report from the per-pair best certified value (best / d(x, y) is the
    pair's ratio; a zero-distance pair passes iff its best value is 0)."""
    n = mat.shape[0]
    bound = rho * (1 + VERIFY_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mat > 0, best / np.where(mat > 0, mat, 1.0), np.where(best > 0, np.inf, 0.0))
    iu = np.triu_indices(n, k=1)
    ratios = ratio[iu]
    violations = [
        (int(iu[0][t]), int(iu[1][t]), float(ratios[t]))
        for t in np.nonzero(ratios > bound)[0]
    ]
    max_stretch = float(ratios.max()) if ratios.size else 0.0
    return VerificationReport(kind, rho, len(ratios), violations, max_stretch)


def via_root_weights(fam, mat):
    """(n, n) min over the orderings holding both x and y of
    d(x, root) + d(root, y); inf where no ordering holds both."""
    n = mat.shape[0]
    best = np.full((n, n), np.inf)
    for o in fam.orderings:
        members = np.asarray(o.perm, dtype=np.int64)
        via = mat[members[:, None], o.root] + mat[o.root, members[None, :]]
        cur = best[np.ix_(members, members)]
        best[np.ix_(members, members)] = np.minimum(cur, via)
    return best


def verify_triangle(fam, metric):
    """For every pair: min over orderings of window diameter / distance."""
    if fam.kind != TRIANGLE:
        raise ValueError("verify_triangle expects a triangle family")
    n = metric.n
    fam.require_points(n)
    mat = metric.matrix()
    best = np.full((n, n), np.inf)
    for perm, pos in zip(fam.perms, fam.table):
        D = window_diameter_table(perm, mat)
        D += D.T  # exact: one of D[i, j], D[j, i] is zero
        inv = pos - 1
        np.minimum(best, D.take(inv, axis=0).take(inv, axis=1), out=best)
    return _report_from_best(TRIANGLE, fam.rho, best, mat)


def verify_rooted(fam, metric):
    """Rooted check: min over shared orderings of (d(u,root)+d(root,v))/d(u,v)."""
    if fam.kind != ROOTED:
        raise ValueError("verify_rooted expects a rooted family")
    n = metric.n
    fam.require_points(n)
    mat = metric.matrix()
    for idx, o in enumerate(fam.orderings):
        if o.root is None:
            raise ValueError(f"ordering {idx} has no root")
        dists = mat[o.root][o.perm]
        if np.any(np.diff(dists) < 0):
            raise ValueError(f"ordering {idx} is not sorted by distance to root {o.root}")
    best = via_root_weights(fam, mat)
    most = max(map(len, fam.membership.values()), default=0)
    if fam.tau and most > fam.tau:
        raise ValueError(f"per-point membership {most} exceeds declared tau {fam.tau}")
    return _report_from_best(ROOTED, fam.rho, best, mat)


def verify_family(fam, metric, hint=None):
    if fam.kind == CLASSIC:
        return verify_classic(fam, metric, hint=hint)
    if fam.kind == TRIANGLE:
        return verify_triangle(fam, metric)
    return verify_rooted(fam, metric)


# ---------------------------------------------------------------------------
# rooted builders


def _tree_adjacency(tree):
    if not tree.is_tree():
        raise ValueError("input graph is not a tree")
    return tree.adjacency()


def build_rooted_lso_tree(tree):
    """Rooted family via vertex-centroid decomposition: exact (rho = 1),
    each point in at most ceil(log2 n) + 1 orderings."""
    adj = _tree_adjacency(tree)
    orderings = []
    stack = [frozenset(range(tree.n))]
    while stack:
        alive = stack.pop()
        if len(alive) < 2:
            continue  # singleton components serve no pair
        c = tree_centroid(adj, alive)
        dist = dijkstra(adj, c, within=alive)
        members = sorted(alive, key=lambda v: (dist[v], v))
        orderings.append(Ordering(members, root=c))
        for comp in components(adj, alive - {c}):
            stack.append(frozenset(comp))
    fam = OrderingFamily(ROOTED, orderings, rho=1.0)
    fam.meta["construction"] = "tree-centroid"
    return fam


@dataclass
class TreeDecomposition:
    """Bags over graph vertices plus a tree on bag ids."""

    bags: list
    tree_edges: list

    @property
    def num_bags(self):
        return len(self.bags)

    @property
    def width(self):
        return max(len(b) for b in self.bags) - 1

    def bag_adjacency(self):
        """Bag tree as (neighbor, weight) adjacency lists with unit weights."""
        adj = [[] for _ in self.bags]
        for a, b in self.tree_edges:
            adj[a].append((b, 1.0))
            adj[b].append((a, 1.0))
        return adj

    def validate(self, g):
        """Raise naming the violated decomposition axiom."""
        covered = set()
        for b in self.bags:
            covered |= set(b)
        if covered != set(range(g.n)):
            missing = sorted(set(range(g.n)) - covered)
            raise ValueError(f"vertex coverage violated: vertices {missing} appear in no bag")
        if self.num_bags > 1 and len(self.tree_edges) != self.num_bags - 1:
            raise ValueError("bag tree is not a tree: wrong edge count")
        adj = self.bag_adjacency()
        if len(components(adj, range(self.num_bags))) != 1:
            raise ValueError("bag tree is not a tree: disconnected")
        bagsets = [set(b) for b in self.bags]
        for u, v, _ in g.edges:
            if not any(u in bs and v in bs for bs in bagsets):
                raise ValueError(f"edge coverage violated: edge ({u},{v}) in no bag")
        for v in range(g.n):
            nodes = {i for i, bs in enumerate(bagsets) if v in bs}
            if len(components(adj, nodes)) != 1:
                raise ValueError(
                    f"vertex connectivity violated: bags containing {v} are not a subtree"
                )


def _balanced_bag(nodes, adj):
    """Bag node minimizing the largest remaining bag-count (ties: lowest id)."""
    nodeset = set(nodes)

    def largest_left(cand):
        return max(map(len, components(adj, nodeset - {cand})), default=0)

    return min(sorted(nodes), key=largest_left)


def build_rooted_lso_treewidth(g, decomp):
    """Rooted family from a tree decomposition via balanced-bag separators.

    Returns the family; fam.meta["clusters"] records the laminar clusters with
    their separator bags for query confinement checks.
    """
    decomp.validate(g)
    dmat = graph_distances(g)
    adj = decomp.bag_adjacency()
    orderings = []
    clusters = []
    # state: (bag node ids forming a subtree, vertices removed so far)
    stack = [(frozenset(range(decomp.num_bags)), frozenset())]
    while stack:
        nodes, removed = stack.pop()
        vertices = set()
        for b in nodes:
            vertices |= set(decomp.bags[b])
        vertices -= removed
        if len(vertices) < 2:
            continue  # no pair to serve here
        sep = _balanced_bag(nodes, adj)
        bag_orig = sorted(set(decomp.bags[sep]))
        cluster_vertices = sorted(vertices)
        ordering_ids = []
        for x in bag_orig:
            elems = set(cluster_vertices) | {x}
            members = sorted(elems, key=lambda v: (dmat[x][v], v))
            members.remove(x)
            members.insert(0, x)
            ordering_ids.append(len(orderings))
            orderings.append(Ordering(members, root=x))
        clusters.append(
            {
                "vertices": cluster_vertices,
                "separator_bag": sep,
                "bag_vertices": bag_orig,
                "ordering_ids": ordering_ids,
            }
        )
        new_removed = removed | set(bag_orig)
        for comp in components(adj, nodes - {sep}):
            stack.append((frozenset(comp), new_removed))
    fam = OrderingFamily(ROOTED, orderings, rho=1.0)
    fam.meta["construction"] = "treewidth-balanced-bags"
    fam.meta["clusters"] = clusters
    return fam
