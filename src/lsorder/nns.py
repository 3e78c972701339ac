"""Labeled nearest neighbor search: predecessor structures with O(1) minimum,
exact ultrametric NNS via preorder positions + lca labels, and the dynamic
reductions from rooted / triangle ordering families.

Labels are assigned once over the host point set; the dynamic structures see
only labels of the current subset P plus the query's label.  A triangle label
is two arrays: the point's position in each ordering and its distance to the
2-hop midpoint of that position at each hop level, so a pair's midpoint weight
is an O(1) lookup at the top bit of the two positions' xor, and a query is one
vectorized estimate over every ordering's predecessor and successor.
"""

from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from .hopsets import TwoHopPathSpanner, level_midpoint
from .metrics import floor_log2
from .orderings import ROOTED, TRIANGLE


class NoSharedOrderingError(LookupError):
    """Query point shares no ordering with any stored point."""


class EmptyStructureError(LookupError):
    """No points are currently stored."""


class PredecessorSet:
    """Two-level bucket structure over [0, N): sorted buckets under a sorted
    directory of nonempty buckets, with an O(1) minimum cache."""

    def __init__(self, universe):
        if universe < 1:
            raise ValueError("universe size must be >= 1")
        self.universe = int(universe)
        self.bucket_bits = max(1, self.universe.bit_length() // 2)
        self._buckets = {}
        self._directory = []  # sorted nonempty bucket ids
        self._min = None
        self._size = 0

    def __len__(self):
        return self._size

    def _check(self, x):
        if not 0 <= x < self.universe:
            raise ValueError(f"element {x} outside universe [0, {self.universe})")

    def insert(self, x):
        self._check(x)
        hi = x >> self.bucket_bits
        bucket = self._buckets.get(hi)
        if bucket is None:
            bucket = []
            self._buckets[hi] = bucket
            insort(self._directory, hi)
        pos = bisect_left(bucket, x)
        if pos < len(bucket) and bucket[pos] == x:
            return False
        bucket.insert(pos, x)
        self._size += 1
        if self._min is None or x < self._min:
            self._min = x
        return True

    def delete(self, x):
        self._check(x)
        hi = x >> self.bucket_bits
        bucket = self._buckets.get(hi)
        if not bucket:
            return False
        pos = bisect_left(bucket, x)
        if pos >= len(bucket) or bucket[pos] != x:
            return False
        bucket.pop(pos)
        self._size -= 1
        if not bucket:
            del self._buckets[hi]
            self._directory.remove(hi)
        if x == self._min:
            self._min = self.successor(x) if self._size else None
        return True

    def minimum(self):
        return self._min

    def predecessor(self, q):
        """Largest stored element <= q (None if none)."""
        self._check(q)
        hi = q >> self.bucket_bits
        bucket = self._buckets.get(hi)
        if bucket:
            pos = bisect_left(bucket, q + 1)
            if pos > 0:
                return bucket[pos - 1]
        dpos = bisect_left(self._directory, hi)
        if dpos > 0:
            return self._buckets[self._directory[dpos - 1]][-1]
        return None

    def successor(self, q):
        """Smallest stored element >= q (None if none)."""
        self._check(q)
        hi = q >> self.bucket_bits
        bucket = self._buckets.get(hi)
        if bucket:
            pos = bisect_left(bucket, q)
            if pos < len(bucket):
                return bucket[pos]
        dpos = bisect_left(self._directory, hi + 1)
        if dpos < len(self._directory):
            return self._buckets[self._directory[dpos]][0]
        return None

    def members(self):
        out = []
        for hi in self._directory:
            out.extend(self._buckets[hi])
        return out


# ---------------------------------------------------------------------------
# lca labels over HSTs


@dataclass
class LcaLabel:
    """Heavy-path spine of one leaf: (apex id, exit index, node id at exit,
    node label at exit) per heavy path on the root-leaf walk."""

    point: int
    spine: list


def build_lca_labels(hst):
    """Heavy-path spine labels: O(log n) entries per leaf; two labels
    alone identify the lca node and its label."""
    ids = {}  # preorder number of each node
    top_down = []
    stack = [hst.root]
    while stack:
        node = stack.pop()
        ids[id(node)] = len(ids)
        top_down.append(node)
        stack.extend(reversed(node.children))
    sizes = {}  # leaves under each node
    for node in reversed(top_down):
        sizes[id(node)] = sum(sizes[id(ch)] for ch in node.children) if node.children else 1
    labels = {}
    stack = [(hst.root, [], ids[id(hst.root)], 0)]  # (node, spine, apex, depth in path)
    while stack:
        node, spine, apex, depth_in_path = stack.pop()
        entry = (apex, depth_in_path, ids[id(node)], node.label)
        if not node.children:
            labels[node.point] = LcaLabel(point=node.point, spine=spine + [entry])
            continue
        heavy = max(node.children, key=lambda ch: (sizes[id(ch)], -ids[id(ch)]))
        for ch in reversed(node.children):
            if ch is heavy:
                stack.append((ch, spine, apex, depth_in_path + 1))
            else:
                stack.append((ch, spine + [entry], ids[id(ch)], 0))
    return labels


def lca_from_labels(la, lb):
    """(node id, label) of the lca of two leaves, from their labels only."""
    k = 0
    while k < len(la.spine) and k < len(lb.spine):
        apex_a, exit_a, node_a, lab_a = la.spine[k]
        apex_b, exit_b, node_b, lab_b = lb.spine[k]
        if apex_a != apex_b:
            # diverged into different light children below the previous exit
            _, _, node, lab = la.spine[k - 1]
            return node, lab
        if exit_a != exit_b:
            # diverge on this heavy path: lca is the shallower exit node
            return (node_a, lab_a) if exit_a < exit_b else (node_b, lab_b)
        k += 1
    # one spine is a prefix of the other (same leaf): its last exit node
    shorter = la if len(la.spine) <= len(lb.spine) else lb
    _, _, node, lab = shorter.spine[len(shorter.spine) - 1]
    return node, lab


@dataclass
class UltrametricNns:
    """Exact 1-NNS over a subset of HST leaves: preorder predecessor/successor
    plus lca labels give the exact ultrametric distance."""

    hst: object
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        order = self.hst.preorder_leaves()
        self.position = {p: i for i, p in enumerate(order)}
        self.by_position = {i: p for p, i in self.position.items()}
        if not self.labels:
            self.labels = build_lca_labels(self.hst)
        self.pred = PredecessorSet(len(order))
        self.current = set()

    def insert(self, pid):
        if self.pred.insert(self.position[pid]):
            self.current.add(pid)

    def delete(self, pid):
        if self.pred.delete(self.position[pid]):
            self.current.discard(pid)

    def query(self, q):
        """(nearest stored point, exact ultrametric distance)."""
        if not self.current:
            raise EmptyStructureError("no points stored")
        pos = self.position[q]
        best = None
        for cand_pos in (self.pred.predecessor(pos), self.pred.successor(pos)):
            if cand_pos is None:
                continue
            cand = self.by_position[cand_pos]
            if cand == q:
                return (q, 0.0)
            _, dist = lca_from_labels(self.labels[q], self.labels[cand])
            if best is None or dist < best[1] or (dist == best[1] and cand < best[0]):
                best = (cand, dist)
        return best


# ---------------------------------------------------------------------------
# rooted-LSO reduction


@dataclass
class RootedNnsLabel:
    point: int
    entries: list  # (ordering id, position, distance to that ordering's root)


def assign_rooted_labels(fam, metric):
    """Label each host point with its (ordering, position, root distance)."""
    if fam.kind != ROOTED:
        raise ValueError("rooted labels need a rooted family")
    fam.require_points(metric.n)
    labels = {}
    for oid, o in enumerate(fam.orderings):
        for pos, pid in enumerate(o.perm):
            labels.setdefault(pid, RootedNnsLabel(pid, [])).entries.append(
                (oid, pos, metric.dist(pid, o.root))
            )
    return labels


class RootedNns:
    """Dynamic rho-NNS: per ordering, the minimum stored position; the answer
    minimizes d(q, root) + d(root, y_min)."""

    def __init__(self, fam, labels):
        self.rho = fam.rho
        self.sizes = {oid: len(o.perm) for oid, o in enumerate(fam.orderings)}
        self.labels = labels
        self.structs = {}
        self.point_at = {}  # (ordering, position) -> point id
        self.current = set()

    def _struct(self, oid):
        s = self.structs.get(oid)
        if s is None:
            s = PredecessorSet(self.sizes[oid])
            self.structs[oid] = s
        return s

    def insert(self, pid):
        if pid in self.current:
            return
        self.current.add(pid)
        for oid, pos, _ in self.labels[pid].entries:
            self._struct(oid).insert(pos)
            self.point_at[(oid, pos)] = pid

    def delete(self, pid):
        if pid not in self.current:
            return
        self.current.discard(pid)
        for oid, pos, _ in self.labels[pid].entries:
            self._struct(oid).delete(pos)
            self.point_at.pop((oid, pos), None)

    def query(self, q_label):
        """Approximate nearest stored point for a labeled query."""
        if not self.current:
            raise EmptyStructureError("no points stored")
        if q_label.point in self.current:
            return q_label.point, 0.0
        best = None
        seen_any = False
        for oid, _, d_q_root in q_label.entries:
            s = self.structs.get(oid)
            if s is None or len(s) == 0:
                continue
            seen_any = True
            pos_min = s.minimum()
            y = self.point_at[(oid, pos_min)]
            d_root_y = _entry_distance(self.labels[y], oid)
            est = d_q_root + d_root_y
            if best is None or est < best[1] or (est == best[1] and y < best[0]):
                best = (y, est)
        if not seen_any:
            raise NoSharedOrderingError(
                f"query point {q_label.point} shares no ordering with stored points"
            )
        return best


def _entry_distance(label, oid):
    for o, _, dist in label.entries:
        if o == oid:
            return dist
    raise KeyError(f"label of {label.point} lacks ordering {oid}")


# ---------------------------------------------------------------------------
# triangle-LSO reduction


@dataclass(eq=False)
class TriangleNnsLabel:
    """positions[o]: 1-indexed position in ordering o; weights[o, k]: distance
    to level_midpoint(position, k + 1) (the 0.0 diagonal where the position
    is that midpoint, NaN past n)."""

    point: int
    positions: np.ndarray  # (m,) int64
    weights: np.ndarray  # (m, delta) float64


def assign_triangle_labels(fam, metric):
    """Per ordering: position plus the distances to the 2-hop structure's
    midpoints of that position, one per hop level, with true metric weights."""
    if fam.kind != TRIANGLE:
        raise ValueError("triangle labels need a triangle family")
    n_host = metric.n
    fam.require_points(n_host)
    hop = TwoHopPathSpanner(n_host)
    mat = metric.matrix()
    perms, positions = fam.perms, fam.table.T  # (m, n) and (n, m)
    m, delta = perms.shape[0], hop.delta
    oids = np.arange(m)[:, None]
    weights = np.full((n_host, m, delta), np.nan)
    pos = np.arange(1, n_host + 1)
    for k in range(delta):
        mid = level_midpoint(pos, k + 1)
        ok = mid <= n_host
        weights[perms[:, ok], oids, k] = mat[perms[:, ok], perms[:, mid[ok] - 1]]
    labels = {
        pid: TriangleNnsLabel(pid, positions[pid], weights[pid])
        for pid in fam.orderings[0].perm
    }
    return labels, hop


class TriangleNns:
    """Dynamic 2*rho-NNS: predecessor/successor per ordering, each estimated
    through the 2-hop midpoint, whose weights live in the labels.

    The pair's midpoint is the level-(k+1) midpoint of both positions, k the
    top bit of their xor, so both weights are one lookup at level k.
    """

    def __init__(self, fam, labels, hop):
        self.rho = fam.rho
        self.labels = labels
        m = fam.tau
        self.structs = [PredecessorSet(hop.n + 1) for _ in range(m)]
        self._oids = np.arange(m)
        self._oids2 = np.concatenate([self._oids, self._oids])
        self.point_at = np.full((m, hop.n + 1), -1, dtype=np.int64)
        self.stored = np.full((hop.n, m, hop.delta), np.nan)  # weights by point id
        self.current = set()

    def insert(self, pid):
        if pid in self.current:
            return
        self.current.add(pid)
        label = self.labels[pid]
        for s, pos in zip(self.structs, label.positions.tolist()):
            s.insert(pos)
        self.point_at[self._oids, label.positions] = pid
        self.stored[pid] = label.weights

    def delete(self, pid):
        if pid not in self.current:
            return
        self.current.discard(pid)
        positions = self.labels[pid].positions
        for s, pos in zip(self.structs, positions.tolist()):
            s.delete(pos)
        self.point_at[self._oids, positions] = -1

    def query(self, q_label):
        if not self.current:
            raise EmptyStructureError("no points stored")
        if q_label.point in self.current:
            return q_label.point, 0.0
        # positions are 1-indexed, so 0 stands for a missing neighbor
        qpos = q_label.positions.tolist()
        cpos = np.array(
            [s.predecessor(x) or 0 for s, x in zip(self.structs, qpos)]
            + [s.successor(x) or 0 for s, x in zip(self.structs, qpos)]
        )
        found = cpos > 0
        oids = self._oids2[found]
        cpos = cpos[found]
        k = floor_log2((q_label.positions[oids] - 1) ^ (cpos - 1))
        cand = self.point_at[oids, cpos]
        est = q_label.weights[oids, k] + self.stored[cand, oids, k]
        best = np.lexsort((cand, est))[0]
        return int(cand[best]), float(est[best])


def label_budget_report(labels):
    """Measured label sizes: entries per label kind."""
    sizes = []
    for lab in labels.values():
        if isinstance(lab, RootedNnsLabel):
            sizes.append(len(lab.entries))
        elif isinstance(lab, TriangleNnsLabel):
            # per ordering 1 + |E_p|: the finite levels, plus p itself when
            # p = 2^delta, the one position that is no level's midpoint
            m, delta = lab.weights.shape
            sizes.append(
                m + int(np.count_nonzero(~np.isnan(lab.weights)))
                + int(np.count_nonzero(lab.positions == 1 << delta))
            )
        else:
            sizes.append(len(lab.spine))
    return {"max_entries": max(sizes), "mean_entries": float(np.mean(sizes))}
