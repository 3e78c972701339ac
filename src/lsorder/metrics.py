"""Point sets, metric views (lp / graph / explicit matrix), nets, shared numerics,
and the package's graph layer: Dijkstra, induced components, subtree sizes and
tree centroids over adjacency lists of (neighbor, weight) pairs.

All distances are 64-bit floats.  Verifiers elsewhere compare lp distances with
relative tolerance 1e-9; graph and ultrametric distances are compared exactly.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

REL_TOL = 1e-9


class PointSet:
    """Finite set of d-dimensional real vectors with contiguous 0-based ids."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("point set needs at least one point of fixed dimension")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        self.points = pts
        self.n = pts.shape[0]
        self.dim = pts.shape[1]

    def __len__(self):
        return self.n


def lp_distance(x, y, p):
    """lp norm of x - y; p may be any real >= 1 or math.inf.

    p = inf is a distinct branch (max coordinate gap), never a large finite p.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if p != math.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    diff = np.abs(x - y)
    if p == math.inf:
        return float(diff.max()) if diff.size else 0.0
    if p == 2:
        return float(np.sqrt(np.sum(diff * diff)))
    if p == 1:
        return float(np.sum(diff))
    return float(np.sum(diff**p) ** (1.0 / p))


class Metric:
    """Distance view over ids 0..n-1.  Subclasses fill in dist()/matrix()."""

    n = 0

    def dist(self, i, j):
        raise NotImplementedError

    def matrix(self):
        """Full pairwise distance matrix (cached); fine at desk scale."""
        raise NotImplementedError


class LpMetric(Metric):
    def __init__(self, pointset, p=2):
        if p != math.inf and p < 1:
            raise ValueError(f"p must be >= 1 or inf, got {p}")
        self.ps = pointset if isinstance(pointset, PointSet) else PointSet(pointset)
        self.p = p
        self.n = self.ps.n
        self._mat = None

    def dist(self, i, j):
        return lp_distance(self.ps.points[i], self.ps.points[j], self.p)

    def matrix(self):
        """Built in row blocks: each block's rows x n x d intermediate holds
        about MATRIX_BLOCK_FLOATS floats, whatever n is."""
        if self._mat is None:
            pts = self.ps.points
            n, d = pts.shape
            rows = max(1, MATRIX_BLOCK_FLOATS // max(1, n * d))
            mat = np.empty((n, n))
            for lo in range(0, n, rows):
                mat[lo : lo + rows] = _lp_rows(pts[lo : lo + rows], pts, self.p)
            self._mat = mat
        return self._mat


# Row blocks of LpMetric.matrix hold about this many float64 differences
# (16 MB); the rows of one block do not depend on the others.
MATRIX_BLOCK_FLOATS = 1 << 21


def _lp_rows(rows, pts, p):
    """lp distances from each of `rows` to every point of `pts`."""
    diff = np.abs(rows[:, None, :] - pts[None, :, :])
    if p == math.inf:
        return diff.max(axis=2)
    if p == 2:
        return np.sqrt((diff * diff).sum(axis=2))
    if p == 1:
        return diff.sum(axis=2)
    return (diff**p).sum(axis=2) ** (1.0 / p)


class MatrixMetric(Metric):
    def __init__(self, mat):
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.allclose(mat, mat.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(mat) != 0):
            raise ValueError("diagonal must be zero")
        if np.any(mat < 0):
            raise ValueError("distances must be nonnegative")
        self._mat = mat
        self.n = mat.shape[0]

    def dist(self, i, j):
        return float(self._mat[i, j])

    def matrix(self):
        return self._mat


@dataclass
class WeightedGraph:
    """Undirected graph with positive edge weights over vertices 0..n-1."""

    n: int
    edges: list = field(default_factory=list)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if w <= 0:
                raise ValueError(f"edge ({u},{v}) has nonpositive weight {w}")

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, float(w)))
            adj[v].append((u, float(w)))
        return adj

    def is_tree(self):
        if len(self.edges) != self.n - 1:
            return False
        return len(components(self.adjacency(), range(self.n))) == 1


def dijkstra(adj, source, within=None):
    """Shortest-path distances from source as a list over all vertices.

    With `within` (a vertex set containing source), only paths inside it
    count.  Unreached vertices stay at inf.
    """
    dist = [math.inf] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] and (within is None or v in within):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _walk(adj, vertices, root):
    """Depth-first walk of root's component inside `vertices`: the visit order
    (every vertex after its parent) and the parent map (root -> None)."""
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for v, _ in adj[u]:
            if v in vertices and v not in parent:
                parent[v] = u
                stack.append(v)
    return order, parent


def components(adj, vertices):
    """Connected components of the subgraph induced by `vertices`, each as a
    sorted list, in ascending order of their smallest vertex."""
    seen = set()
    out = []
    for v in sorted(vertices):
        if v not in seen:
            order, _ = _walk(adj, vertices, v)
            seen.update(order)
            out.append(sorted(order))
    return out


def subtree_sizes(adj, alive, root):
    """Tree `alive` hung from root: (parent map, subtree size per vertex)."""
    order, parent = _walk(adj, alive, root)
    size = dict.fromkeys(order, 1)
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    return parent, size


def tree_centroid(adj, alive):
    """Vertex of the tree `alive` minimizing the largest component left after
    removing it (ties: lowest id)."""
    parent, size = subtree_sizes(adj, alive, min(alive))
    worst = {u: len(size) - s for u, s in size.items()}
    for u, p in parent.items():
        if p is not None:
            worst[p] = max(worst[p], size[u])
    return min(worst, key=lambda u: (worst[u], u))


def floor_log2(v):
    """Exact floor(log2 v) of a positive int64 array.

    Once v >= 2^49 the float64 estimate k = log2(v) rounds up to j just below
    2^j.  v >> k is 0 when k is one too high, 1 when it is exact and 2 or 3
    when it is one too low, so adding sign((v >> k) - 1) corrects it.
    """
    v = np.asarray(v, dtype=np.int64)
    k = np.log2(v).astype(np.int64)
    t = v >> k
    t -= 1
    k += np.sign(t, out=t)
    return k


def graph_distances(g, sources=None):
    """Exact shortest-path distances from each source (default: all vertices).

    Raises on disconnected input, naming an unreachable vertex.
    """
    adj = g.adjacency()
    sources = list(range(g.n)) if sources is None else list(sources)
    out = np.empty((len(sources), g.n))
    for row, s in enumerate(sources):
        dist = dijkstra(adj, s)
        for v, dv in enumerate(dist):
            if math.isinf(dv):
                raise ValueError(f"graph is disconnected: vertex {v} unreachable from {s}")
        out[row] = dist
    return out


def shortest_path_metric(g):
    """Metric view of a connected weighted graph (full closure).

    Per-source relaxations can round differently along the two directions of
    one path, so the closure is symmetrized by taking the smaller sum.
    """
    mat = graph_distances(g)
    mat = np.minimum(mat, mat.T)
    return MatrixMetric(mat)


def build_epsilon_net(metric, r):
    """Greedy net in ascending id order: packing >= r, covering <= r.
    Returns the net's point ids."""
    if r <= 0:
        raise ValueError("net radius must be positive")
    mat = metric.matrix()
    covered = np.zeros(metric.n, dtype=bool)
    net = []
    for i in range(metric.n):
        if not covered[i]:
            net.append(i)
            covered |= mat[:, i] < r  # column i: d(j, i) for every later j
    return net


def aspect_ratio(metric):
    """Max pairwise distance over min positive pairwise distance."""
    dmin, dmax = min_max_pairwise(metric)
    return dmax / dmin


def min_max_pairwise(metric):
    """(min positive distance, max distance) over all pairs."""
    mat = metric.matrix()
    iu = np.triu_indices(metric.n, k=1)
    vals = mat[iu]
    pos = vals[vals > 0]
    if pos.size == 0:
        raise ValueError("all points identical")
    return float(pos.min()), float(vals.max())
