"""Padded partition covers, laminar hierarchies, HSTs, ultrametric covers,
and the preorder triangle-LSO they induce.

Pipeline: random ball carving over a net gives Delta-bounded partitions with
empirically certified padding; per scale chain, unrelated partitions are
rounded bottom-up into a laminar hierarchy (cluster diameters grow by at most
1+eps); the hierarchy becomes an HST whose level-i label is (1+eps)*Delta_i;
shifted scale ladders make the union a dominating ultrametric cover; leaf
preorders of the HSTs form a triangle family with rho = cover stretch.  The
same preorder gives every HST distance: d_U(x_i, x_j) is the window max of
the lca labels of adjacent leaves x_k, x_k+1 for i <= k < j.
"""

import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import seeds
from .metrics import MatrixMetric, build_epsilon_net, min_max_pairwise
from .orderings import TRIANGLE, Ordering, OrderingFamily

# build_padded_partition_cover adds at most this many partitions;
# build_ultrametric_cover resamples at most COVER_ROUNDS times, with the
# scale-ladder slack COVER_EPS
MAX_PARTITIONS = 64
COVER_ROUNDS = 6
COVER_EPS = 0.25


@dataclass
class Partition:
    """Delta-bounded partition: cluster id per point, ids in carve order."""

    assignment: np.ndarray
    delta: float

    @property
    def num_clusters(self):
        return int(self.assignment.max()) + 1 if self.assignment.size else 0

    def clusters(self):
        out = [[] for _ in range(self.num_clusters)]
        for p, c in enumerate(self.assignment):
            out[int(c)].append(p)
        return out

    def check_bounded(self, mat):
        for members in self.clusters():
            idx = np.asarray(members)
            if idx.size > 1 and mat[np.ix_(idx, idx)].max() > self.delta * (1 + 1e-12):
                return False
        return True


@dataclass
class PaddedPartitionCover:
    partitions: list

    @property
    def tau(self):
        return len(self.partitions)


def carve_partition(metric, delta, rng):
    """One Delta-bounded partition: random-permutation ball carving with
    radius Delta/2 over a Delta/4-net."""
    mat = metric.matrix()
    n = metric.n
    net = build_epsilon_net(metric, delta / 4.0)
    order = list(rng.permutation(len(net)))
    assignment = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for k in order:
        center = net[k]
        ball = np.nonzero(mat[center] <= delta / 2.0)[0]
        fresh = ball[assignment[ball] == -1]
        if fresh.size:
            assignment[fresh] = next_id
            next_id += 1
    if np.any(assignment == -1):
        raise AssertionError("ball carving left a point unassigned; net covering broken")
    return Partition(assignment=assignment, delta=float(delta))


def build_padded_partition_cover(metric, delta, t, seed, min_partitions=1):
    """Partitions are added with fresh seeds until every point's Delta/t-ball
    is inside one cluster of one partition; tau is an output."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if t < 2:
        raise ValueError("padding parameter t must be >= 2")
    mat = metric.matrix()
    n = metric.n
    pad = delta / t
    padded = np.zeros(n, dtype=bool)
    partitions = []
    for round_idx in range(MAX_PARTITIONS):
        if padded.all() and len(partitions) >= min_partitions:
            break
        rng = seeds.rng_for(seed, "padded-cover", round_idx)
        part = carve_partition(metric, delta, rng)
        if not part.check_bounded(mat):
            raise AssertionError("carved partition exceeds its diameter bound")
        partitions.append(part)
        for x in np.nonzero(~padded)[0]:
            ball = np.nonzero(mat[x] <= pad * (1 + 1e-12))[0]
            if np.all(part.assignment[ball] == part.assignment[x]):
                padded[x] = True
    if not padded.all():
        worst = int(np.nonzero(~padded)[0][0])
        raise RuntimeError(
            f"padding failed after {MAX_PARTITIONS} partitions; worst point {worst}"
        )
    return PaddedPartitionCover(partitions=partitions)


@dataclass
class LaminarHierarchy:
    """levels[i] = list of clusters (tuples of point ids), refining upward;
    levels[-1] are singletons, the last level is a single root cluster."""

    levels: list
    deltas: list
    eps: float


def laminarize(partitions, deltas, eps, mat=None):
    """Round per-scale partitions into a laminar chain.

    partitions[i] is the chosen partition at scale Delta_i; each new cluster
    absorbs every previous-level cluster meeting the unclaimed part of its
    source cluster, in ascending cluster-id order.
    """
    if len(partitions) != len(deltas):
        raise ValueError("one partition per scale required")
    n = len(partitions[0].assignment)
    prev = [(p,) for p in range(n)]
    levels = [prev]
    for part, delta in zip(partitions, deltas):
        prev_index = {}
        for ci, cluster in enumerate(prev):
            for p in cluster:
                prev_index[p] = ci
        claimed_prev = set()
        claimed_pts = set()
        new_level = []
        for members in part.clusters():
            fresh = [p for p in members if p not in claimed_pts]
            if not fresh:
                continue
            absorbed = sorted({prev_index[p] for p in fresh} - claimed_prev)
            if not absorbed:
                continue
            merged = []
            for ci in absorbed:
                merged.extend(prev[ci])
                claimed_prev.add(ci)
            claimed_pts.update(merged)
            new_level.append(tuple(sorted(merged)))
        if mat is not None:
            for cluster in new_level:
                idx = np.asarray(cluster)
                if idx.size > 1:
                    diam = mat[np.ix_(idx, idx)].max()
                    if diam > (1 + eps) * delta * (1 + 1e-9):
                        raise ValueError(
                            f"laminarized cluster diameter {diam:.6g} exceeds "
                            f"(1+eps)*Delta = {(1 + eps) * delta:.6g}; inconsistent scales"
                        )
        levels.append(new_level)
        prev = new_level
    return LaminarHierarchy(levels=levels, deltas=list(deltas), eps=float(eps))


@dataclass
class HstNode:
    label: float
    children: list = field(default_factory=list)
    point: int = -1  # leaf payload


class HST:
    """Hierarchical tree: leaves biject to points, internal labels
    nonincreasing toward the leaves, d(x, y) = label of the lca.

    One walk at construction records the leaf preorder (children in ascending
    min-point order) and the lca node of each pair of adjacent leaves.  Along
    that preorder d(x_i, x_j) = max over i <= k < j of d(x_k, x_k+1), so every
    distance is a window max over the adjacent labels, read at call time.
    """

    def __init__(self, root, n):
        self.root = root
        self.n = n
        self._preorder, self._joins = _walk(root)
        if sorted(self._preorder) != list(range(n)):
            raise ValueError("HST leaves must biject to point ids 0..n-1")

    def preorder_leaves(self):
        """Leaf point ids, children visited in ascending min-point-id."""
        return list(self._preorder)

    def distance_matrix(self):
        """d_U for all pairs: window max over adjacent-leaf lca labels."""
        n = self.n
        adjacent = np.array([node.label for node in self._joins], dtype=np.float64)
        win = np.zeros((n, n))
        for i in range(n - 1):
            win[i, i + 1 :] = np.maximum.accumulate(adjacent[i:])
        win = np.maximum(win, win.T)
        pos = np.empty(n, dtype=np.int64)
        pos[self._preorder] = np.arange(n)
        return win[np.ix_(pos, pos)]

    def metric(self):
        return MatrixMetric(self.distance_matrix())


def _walk(root):
    """(leaf preorder, lca node per adjacent leaf pair) of the tree at root,
    children in ascending min-point order; checks the label rules on the way.

    Iterative (bottom-up over a breadth-first list of the internal nodes), so
    the depth is not bounded by the recursion limit.
    """
    if not root.children:
        if root.label != 0.0:
            raise ValueError("HST leaf labels must be 0")
        return [root.point], []
    top_down = [root]
    for node in top_down:  # grows while it is read: every node after its parent
        for ch in node.children:
            if ch.children:
                top_down.append(ch)
    done = {}  # id(node) -> (min point, leaf preorder, joins) of its subtree
    for node in reversed(top_down):
        parts = []
        for ch in node.children:
            if ch.label > node.label:
                raise ValueError("HST labels must be nonincreasing from the root")
            if ch.children:
                parts.append(done.pop(id(ch)))
            elif ch.label != 0.0:
                raise ValueError("HST leaf labels must be 0")
            else:
                parts.append((ch.point, [ch.point], []))
        parts.sort(key=itemgetter(0))
        first, leaves, joins = parts[0]
        for _, sub_leaves, sub_joins in parts[1:]:
            joins.append(node)
            joins.extend(sub_joins)
            leaves.extend(sub_leaves)
        done[id(node)] = (first, leaves, joins)
    _, leaves, joins = done[id(root)]
    return leaves, joins


def hierarchy_to_hst(h):
    """HST whose level-i internal nodes are the level-i clusters with label
    (1+eps)*Delta_i."""
    if len(h.levels[-1]) != 1:
        raise ValueError("laminar chain must be topped by a single root cluster")
    n = len(h.levels[0])
    nodes_prev = {(p,): HstNode(label=0.0, point=p) for (p,) in h.levels[0]}
    for li, level in enumerate(h.levels[1:]):
        label = (1 + h.eps) * h.deltas[li]
        nodes_cur = {cluster: HstNode(label=float(label)) for cluster in level}
        owner = {p: node for cluster, node in nodes_cur.items() for p in cluster}
        if len(owner) != sum(map(len, nodes_cur)):
            raise ValueError("input hierarchy is not laminar")
        for prev_cluster, prev_node in nodes_prev.items():
            home = owner.get(prev_cluster[0])
            if home is None or any(owner.get(p) is not home for p in prev_cluster):
                raise ValueError("input hierarchy is not laminar")
            home.children.append(prev_node)
        nodes_prev = nodes_cur
    root = next(iter(nodes_prev.values()))
    # collapse single-child chains so labels stay meaningful but structure is tight
    return HST(_collapse(root), n)


def _collapse(root):
    """Skip every single-child chain; returns the new root."""

    def skip(node):
        while len(node.children) == 1:
            node = node.children[0]
        return node

    root = skip(root)
    stack = [root]
    while stack:
        node = stack.pop()
        node.children = [skip(ch) for ch in node.children]
        stack.extend(node.children)
    return root


@dataclass
class UltrametricCover:
    hsts: list
    rho: float
    rounds: int = 1

    @property
    def tau(self):
        return len(self.hsts)

    def min_distance_matrix(self):
        out = None
        for h in self.hsts:
            m = h.distance_matrix()
            out = m if out is None else np.minimum(out, m)
        return out


def build_ultrametric_cover(metric, t, seed=0):
    """Dominating ultrametric cover with min-over-HSTs stretch <= t.

    Internally rescales so the minimum distance is 1 (labels scaled back),
    builds padded partition covers at scales Delta_i = c*(4*rho/eps)^i for
    every shift c = (1+eps)^l, laminarizes each per-cover-index chain, and
    collects the HSTs.  The chain-minimum stretch is checked on the input;
    on failure everything is resampled with a fresh derived seed.
    """
    eps = COVER_EPS
    if t < 4:
        raise ValueError(
            f"stretch target {t} too small: Delta/4-net carving cannot pad below Delta/4"
        )
    rho_pad = float(t)
    dmin, dmax = min_max_pairwise(metric)
    scale = 1.0 / dmin
    mat = metric.matrix() * scale
    scaled = MatrixMetric(mat)
    phi = dmax / dmin
    ratio = 4 * rho_pad / eps
    num_shifts = int(math.floor(math.log(ratio) / math.log(1 + eps))) + 1
    worst = None
    for round_idx in range(COVER_ROUNDS):
        hsts = []
        for l in range(num_shifts):
            c = (1 + eps) ** l
            top = int(math.ceil(math.log(max(phi / c, 1.0)) / math.log(ratio))) + 1
            deltas = [c * ratio**i for i in range(top + 1)]
            covers = [
                build_padded_partition_cover(
                    scaled,
                    d,
                    rho_pad,
                    seeds.derive(seed, "round", round_idx, "shift", l, i),
                    min_partitions=2,
                )
                for i, d in enumerate(deltas)
            ]
            width = max(cov.tau for cov in covers)
            for j in range(width):
                chain = [cov.partitions[min(j, cov.tau - 1)] for cov in covers]
                h = laminarize(chain, deltas, eps, mat=mat)
                if len(h.levels[-1]) != 1:
                    raise AssertionError("top scale must merge everything into one cluster")
                hsts.append(hierarchy_to_hst(h))
        cover = UltrametricCover(hsts=hsts, rho=float(t))
        stretch = cover.min_distance_matrix() / np.where(mat > 0, mat, 1.0)
        worst = float(stretch.max())
        if worst <= t * (1 + 1e-9):
            for h in cover.hsts:
                _rescale_labels(h.root, 1.0 / scale)
            cover.rounds = round_idx + 1
            return cover
    raise RuntimeError(
        f"ultrametric cover stretch {worst:.4g} still above {t} after {COVER_ROUNDS} rounds"
    )


def _rescale_labels(root, factor):
    stack = [root]
    while stack:
        node = stack.pop()
        node.label *= factor
        stack.extend(node.children)


def cover_preorder_to_triangle_lso(cover):
    """One ordering per HST: the leaf preorder; triangle family with
    rho = cover stretch."""
    orderings = [Ordering(h.preorder_leaves()) for h in cover.hsts]
    fam = OrderingFamily(TRIANGLE, orderings, rho=cover.rho)
    fam.meta["construction"] = "ultrametric-cover-preorder"
    return fam
